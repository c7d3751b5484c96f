"""Corruption generators and proximity label builders.

Every operation is deterministic given an explicit Generator (see
foldkit.rng); nothing touches global random state. "Fraction corrupted"
means exactly floor(nu * n) positions sampled without replacement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .codec import backbone_walk, to_internal
from .errors import (DegenerateConfiguration, MissingConfidence, SelectorEmpty,
                     SingleChain, TooFewNodes)
from .featurise import ProteinGraph
from .geometry import (bond_angles, defined, dihedrals, near_masks, row_norms,
                       superpose)
from .residues import MASK_INDEX, VOCABULARY, residue_index
from .rng import make_rng
from .structure import BACKBONE_ATOMS, Chain, Structure, joined

# Sequence-denoising auxiliary loss weight; the corrupt manifest records
# it so downstream consumers share one constant.
DEFAULT_LAMBDA_AUX = 0.1
DEFAULT_NU = 0.25
DEFAULT_SIGMA = 0.1
DEFAULT_CUTOFF = 3.5


class CorruptionKind(enum.Enum):
    SEQ_MUTATE = "seq_mutate"
    SEQ_MASK = "seq_mask"
    COORD_GAUSS = "coord_gauss"
    COORD_UNIFORM = "coord_uniform"
    TORSION_GAUSS = "torsion_gauss"
    CO_DENOISE = "co_denoise"


@dataclass(frozen=True)
class CorruptionSpec:
    kind: CorruptionKind
    nu: float = DEFAULT_NU
    sigma: float = DEFAULT_SIGMA
    seed: int = 0

    def __post_init__(self):
        check_fraction(self.nu)
        check_sigma(self.sigma)
        if self.seed < 0:
            raise DegenerateConfiguration(
                f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class DenoisingTargets:
    """Supervision targets; populated fields depend on kind."""
    kind: str
    positions: np.ndarray | None = None          # corrupted node indices
    original_residues: np.ndarray | None = None  # vocabulary indices
    noise: np.ndarray | None = None              # coordinate eps, unscaled
    sigma: float | None = None
    angular_noise: np.ndarray | None = None      # (n, 3) phi/psi/omega
    original_angles: np.ndarray | None = None    # (n, 3)
    indices: np.ndarray | None = None            # masked-attribute tuples
    values: np.ndarray | None = None             # true attribute / plddt
    sequence: "DenoisingTargets | None" = None   # co-denoising parts
    structure: "DenoisingTargets | None" = None


@dataclass(frozen=True)
class CorruptionResult:
    corrupted: object                 # same type as the corrupted input
    targets: DenoisingTargets
    corrupted_mask: np.ndarray        # bool per node


@dataclass(frozen=True)
class LabelSet:
    labels: np.ndarray    # int8 per residue
    cutoff: float
    selector: str


def check_fraction(fraction: float, name: str = "nu") -> None:
    """Raise DegenerateConfiguration unless fraction is in [0, 1]."""
    if not 0.0 <= fraction <= 1.0:
        raise DegenerateConfiguration(
            f"{name} must be in [0, 1], got {fraction}")


def _pick_positions(n: int, nu: float, rng: np.random.Generator,
                    name: str = "nu") -> np.ndarray:
    check_fraction(nu, name)
    m = int(np.floor(nu * n))
    if m == 0:
        return np.empty(0, dtype=np.int64)
    return np.sort(rng.choice(n, size=m, replace=False))


def corrupt_sequence_mutate(residues, nu: float,
                            rng: np.random.Generator) -> CorruptionResult:
    """Mutate floor(nu*n) residues to a different canonical type.

    residues is an array of vocabulary indices. The replacement is drawn
    uniformly from the 20 canonical types excluding the original (all 20
    when the original is itself non-canonical).
    """
    residues = np.asarray(residues, dtype=np.int64)
    positions = _pick_positions(len(residues), nu, rng)
    corrupted = residues.copy()
    for p in positions:
        original = residues[p]
        if original < 20:
            draw = int(rng.integers(0, 19))
            corrupted[p] = draw if draw < original else draw + 1
        else:
            corrupted[p] = int(rng.integers(0, 20))
    return _sequence_result(residues, positions, corrupted)


def corrupt_sequence_mask(residues, nu: float,
                          rng: np.random.Generator) -> CorruptionResult:
    """Replace floor(nu*n) residues with the MASK vocabulary symbol."""
    residues = np.asarray(residues, dtype=np.int64)
    positions = _pick_positions(len(residues), nu, rng)
    corrupted = residues.copy()
    corrupted[positions] = MASK_INDEX
    return _sequence_result(residues, positions, corrupted)


def _sequence_result(residues: np.ndarray, positions: np.ndarray,
                     corrupted: np.ndarray) -> CorruptionResult:
    mask = np.zeros(len(residues), dtype=bool)
    mask[positions] = True
    targets = DenoisingTargets(kind="sequence", positions=positions,
                               original_residues=residues[positions])
    return CorruptionResult(corrupted, targets, mask)


def corrupt_coords_gaussian(X, sigma: float,
                            rng: np.random.Generator) -> CorruptionResult:
    """x~ = x + sigma * eps with eps ~ N(0, I3) per row.

    eps and sigma are stored separately so sigma = 0 leaves X bit-identical
    and x = x~ - sigma * eps recovers the input exactly.
    """
    return _noise_coords(X, sigma, rng.standard_normal(np.shape(X)))


def corrupt_coords_uniform(X, sigma: float,
                           rng: np.random.Generator) -> CorruptionResult:
    """As the Gaussian variant with eps components ~ Uniform(-1, 1)."""
    return _noise_coords(X, sigma, rng.uniform(-1.0, 1.0, size=np.shape(X)))


def check_sigma(sigma: float) -> None:
    """Raise DegenerateConfiguration unless sigma is finite and >= 0."""
    if not 0.0 <= sigma < np.inf:
        raise DegenerateConfiguration(
            f"sigma must be finite and >= 0, got {sigma}")


def _noise_coords(X, sigma: float, eps: np.ndarray) -> CorruptionResult:
    check_sigma(sigma)
    X = np.asarray(X, dtype=np.float64)
    noised = X if sigma == 0.0 else X + sigma * eps
    targets = DenoisingTargets(kind="coordinate", noise=eps, sigma=sigma)
    return CorruptionResult(noised, targets, np.ones(len(X), dtype=bool))


# The stand-alone op of each sequence and coordinate kind.
_OPS = {CorruptionKind.SEQ_MUTATE: corrupt_sequence_mutate,
        CorruptionKind.SEQ_MASK: corrupt_sequence_mask,
        CorruptionKind.COORD_GAUSS: corrupt_coords_gaussian,
        CorruptionKind.COORD_UNIFORM: corrupt_coords_uniform}


def corrupt_torsions(chain: Chain, sigma: float,
                     rng: np.random.Generator) -> CorruptionResult:
    """Noise phi/psi/omega, keep bond angles, rebuild the backbone by NeRF.

    Gaussian noise scaled by sigma is added to the defined backbone
    torsions and wrapped into [-pi, pi); backbone_walk() places N/CA/C/O
    with canonical bond lengths and the measured bond angles. Every other
    atom of a residue moves rigidly with its N-CA-C (the Kabsch motion of
    the old frame onto the new one), and atoms, residues and their
    metadata are the input's. Targets hold the per-residue angular noise
    triplets (primary) and the original angles (auxiliary).
    """
    check_sigma(sigma)
    ic = to_internal(chain)
    table = chain.table
    backbone = table.backbone[0]
    n = ic.n_residues
    noise = rng.standard_normal((n, 3)) * sigma
    noise[~ic.defined_torsions] = 0.0
    original = np.stack([ic.phi, ic.psi, ic.omega], axis=1)
    noised = np.mod(original + noise + np.pi, 2.0 * np.pi) - np.pi
    noised[~ic.defined_torsions] = 0.0
    walked = backbone_walk(replace(ic, phi=noised[:, 0], psi=noised[:, 1],
                                   omega=noised[:, 2]))
    owner = table.owner
    slots = table.named(BACKBONE_ATOMS)  # (m, 4)
    has_side = np.bincount(owner, ~slots.any(axis=1), n) > 0
    R, t = np.zeros((n, 3, 3)), np.zeros((n, 3))
    R[has_side], t[has_side] = superpose(backbone[has_side, :3],
                                         walked[has_side, :3])
    xyz = (R[owner] @ table.xyz[..., None])[..., 0] + t[owner]
    atom, slot = np.nonzero(slots)
    xyz[atom] = walked[owner[atom], slot]
    targets = DenoisingTargets(kind="torsional", angular_noise=noise,
                               original_angles=original, sigma=sigma)
    return CorruptionResult(Chain.from_table(chain.id, replace(table, xyz=xyz)),
                            targets, np.ones(n, dtype=bool))


class MaskedAttribute(enum.Enum):
    DISTANCE = 2
    ANGLE = 3
    DIHEDRAL = 4


def _consecutive_tuples(graph: ProteinGraph, size: int) -> np.ndarray:
    """Runs of `size` consecutive nodes within one chain."""
    windows = (np.arange(graph.num_nodes - size + 1)[:, None]
               + np.arange(size)).astype(np.int64)
    chains = graph.chain_index[windows]
    return windows[np.all(chains == chains[:, :1], axis=1)]


def masked_attribute_targets(graph: ProteinGraph, kind: MaskedAttribute,
                             fraction: float,
                             rng: np.random.Generator) -> DenoisingTargets:
    """Sample geometric tuples and return their true values as targets.

    DISTANCE samples stored edges; ANGLE and DIHEDRAL sample consecutive
    residue triplets/quadruples within a chain.
    """
    if graph.num_nodes < kind.value:
        raise TooFewNodes(
            f"{kind.name} needs >= {kind.value} nodes, got {graph.num_nodes}")
    if kind is MaskedAttribute.DISTANCE:
        candidates = graph.topology.edges
    else:
        candidates = _consecutive_tuples(graph, kind.value)
    if len(candidates) == 0:
        raise TooFewNodes(f"no candidate tuples for {kind.name}")
    tuples = candidates[_pick_positions(len(candidates), fraction, rng,
                                        "fraction")]
    points = graph.coords[tuples.T]
    if kind is MaskedAttribute.DISTANCE:
        values = row_norms(points[0] - points[1])
    else:
        values = defined(bond_angles if kind is MaskedAttribute.ANGLE
                         else dihedrals, *points)
    return DenoisingTargets(kind=f"masked_{kind.name.lower()}",
                            indices=tuples, values=values)


def plddt_targets(s: Structure) -> DenoisingTargets:
    """Scaled per-residue confidence y = b_factor / 100, clamped to [0, 1].

    Reads the CA b-factor (predicted-structure convention), falling back
    to the residue's first atom. Raises MissingConfidence when every
    value is zero or absent.
    """
    table = s.table
    n = len(table.res_type)
    first = np.searchsorted(table.owner, np.arange(n))
    first[np.bincount(table.owner, minlength=n) == 0] = -1
    ca = table.slots(("CA",))[:, 0]
    values = np.append(table.b_factor, 0.0)[np.where(ca >= 0, ca, first)]
    if not len(values) or np.all(values == 0.0):
        raise MissingConfidence("no b-factor confidence values present")
    return DenoisingTargets(kind="plddt", values=np.clip(values / 100.0, 0.0, 1.0))


def binding_site_labels(s: Structure, selector, cutoff: float = DEFAULT_CUTOFF) -> LabelSet:
    """Label 1 for residues with any atom within cutoff (inclusive) of an
    atom of a ligand residue whose code is in selector (a set of codes).
    Raises DegenerateGeometry on a non-finite coordinate."""
    selector = {code.upper() for code in selector}
    table, ligands = s.table, joined(s.ligands)
    selected = np.isin(ligands.res_type, list(selector))
    targets = ligands.xyz[selected[ligands.owner]]
    if targets.size == 0:
        raise SelectorEmpty(f"no ligand atom matches {sorted(selector)}")
    hits = np.bincount(table.owner, near_masks(table.xyz, targets, cutoff)[0],
                       len(table.res_type))
    return LabelSet((hits > 0).astype(np.int8), cutoff,
                    "het:" + ",".join(sorted(selector)))


def interface_labels(complex_structure: Structure,
                     cutoff: float = DEFAULT_CUTOFF) -> LabelSet:
    """Label 1 for residues with any atom within cutoff (inclusive) of an
    atom of a chain with another id. Chains go in order of atom count and
    each searches all later ones once (near_masks), so each cross-chain
    contact is found once. Raises DegenerateGeometry on a non-finite
    coordinate."""
    if len(complex_structure.chains) < 2:
        raise SingleChain("interface labels need at least 2 chains")
    table = complex_structure.table
    positions, owner = table.xyz, table.owner
    ids, group = np.unique(table.chain, return_inverse=True)
    sizes = np.bincount(group[owner], minlength=len(ids))
    rank = np.argsort(np.argsort(sizes, kind="stable"))[group[owner]]
    hit = np.zeros(len(positions), dtype=bool)
    for r in range(len(ids) - 1):
        mine, later = rank == r, rank > r
        mine_hit, later_hit = near_masks(positions[mine], positions[later], cutoff)
        hit[mine] |= mine_hit
        hit[later] |= later_hit
    hits = np.bincount(owner, hit, len(table.res_type))
    return LabelSet((hits > 0).astype(np.int8), cutoff, "interface")


def corrupt_structure(s: Structure, spec: CorruptionSpec) -> CorruptionResult:
    """Apply a CorruptionSpec to a whole Structure (the CLI entry point).

    One pass over s.table: the sequence op (stream 0 of spec.seed)
    rewrites res_type; the coordinate op (stream 1) noises every polymer
    atom, or corrupt_torsions (stream 1, chain by chain) moves only
    positions, keeping every atom and all metadata. CO_DENOISE is
    SEQ_MUTATE then COORD_GAUSS. The new columns replace the table's in
    one step, cut back into s's chains; ligands are never changed.
    """
    table, kind, co = s.table, spec.kind, spec.kind is CorruptionKind.CO_DENOISE
    columns, parts = {}, []
    mask = np.ones(len(table.res_type), dtype=bool)
    if co or kind in (CorruptionKind.SEQ_MUTATE, CorruptionKind.SEQ_MASK):
        indices = np.asarray([  # vocabulary index per residue, chain order
            residue_index(t) for t in table.res_type])
        result = _OPS[CorruptionKind.SEQ_MUTATE if co else kind](
            indices, spec.nu, make_rng(spec.seed, stream=0))
        columns["res_type"] = np.array(VOCABULARY, dtype=object)[result.corrupted]
        mask, parts = result.corrupted_mask, [result.targets]
    rng = make_rng(spec.seed, stream=1)
    if co or kind in (CorruptionKind.COORD_GAUSS, CorruptionKind.COORD_UNIFORM):
        result = _OPS[CorruptionKind.COORD_GAUSS if co else kind](
            table.xyz, spec.sigma, rng)
        columns["xyz"] = result.corrupted
        parts.append(result.targets)
    elif kind is CorruptionKind.TORSION_GAUSS:
        noised = [corrupt_torsions(chain, spec.sigma, rng) for chain in s.chains]
        empty = [np.empty((0, 3))]  # no polymer chain: empty targets
        columns["xyz"] = np.concatenate(
            empty + [p.corrupted.table.xyz for p in noised])
        parts.append(DenoisingTargets(
            kind="torsional", sigma=spec.sigma,
            angular_noise=np.concatenate(
                empty + [p.targets.angular_noise for p in noised]),
            original_angles=np.concatenate(
                empty + [p.targets.original_angles for p in noised])))
    table = replace(table, **columns)
    bounds = np.cumsum([0] + [len(c.table.res_type) for c in s.chains]).tolist()
    chains = tuple(Chain.from_table(chain.id, table.rows(start, stop))
                   for chain, start, stop in zip(s.chains, bounds, bounds[1:]))
    targets = parts[0] if len(parts) == 1 else DenoisingTargets(
        kind="co", sequence=parts[0], structure=parts[1])
    return CorruptionResult(replace(s, chains=chains), targets, mask)
