"""Torsion, angle, and graph geometry over 3D coordinates.

Angles are radians. Torsions live in [-pi, pi) with +pi normalised to -pi;
bond angles live in [0, pi]. Every angle comes from the batched kernels
dihedrals() and bond_angles(). Angles that do not exist (chain termini,
absent sidechain atoms) are NaN in arrays and None, never NaN, in tuples.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateConfiguration, DegenerateGeometry,
                     DimensionMismatch, MalformedRecord, MissingAtom,
                     TooFewNodes)
from .residues import CHI_ATOMS, MAX_CHI, RESIDUE_INDEX, VOCAB_SIZE, residue_index
from .structure import BACKBONE_ATOMS, AtomTable, Chain, Residue, atom_table

_EPS = 1e-12
TWO_PI = 2.0 * np.pi
KNN_BLOCK = 32

# Every atom name of a chi quadruple, and per vocabulary index the
# (chi, atom) columns of its quadruples among them; -1 (no atom) past the
# type's last torsion.
_CHI_NAMES = tuple(dict.fromkeys(
    name for quads in CHI_ATOMS.values() for quad in quads for name in quad))
_CHI_COLUMNS = np.full((VOCAB_SIZE, MAX_CHI, 4), -1)
for _type, _quads in CHI_ATOMS.items():
    _CHI_COLUMNS[RESIDUE_INDEX[_type], :len(_quads)] = np.reshape(
        [_CHI_NAMES.index(name) for quad in _quads for name in quad], (-1, 4))


def wrap_angle(theta: float) -> float:
    """Map an angle into [-pi, pi); +pi wraps to -pi."""
    return float(np.mod(theta + np.pi, TWO_PI) - np.pi)


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (m, 3) arrays. Each row goes through the
    routine np.dot uses on two 3-vectors, so it gives the same bits."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an (m, 3) array."""
    return np.sqrt(_dots(v, v))


def dihedrals(p1, p2, p3, p4) -> tuple[np.ndarray, np.ndarray]:
    """Signed torsions of the bonds p2-p3 over (m, 3) rows, and their
    validity mask.

    0 is cis (p1 and p4 eclipsed); positive sense is clockwise looking
    from p2 toward p3 (atan2 of the two plane normals around b2). A row
    whose bonded triples are collinear is invalid and holds NaN.
    """
    p1, p2, p3, p4 = (np.asarray(p, dtype=np.float64).reshape(-1, 3)
                      for p in (p1, p2, p3, p4))
    b2 = p3 - p2
    n1 = np.cross(p2 - p1, b2)
    n2 = np.cross(b2, p4 - p3)
    valid = ~((row_norms(n1) < _EPS) | (row_norms(n2) < _EPS))
    with np.errstate(invalid="ignore", divide="ignore"):
        b2n = b2 / row_norms(b2)[:, None]
    angles = np.arctan2(_dots(np.cross(n1, n2), b2n), _dots(n1, n2))
    return np.where(valid, np.mod(angles + np.pi, TWO_PI) - np.pi, np.nan), valid


def bond_angles(p1, p2, p3) -> tuple[np.ndarray, np.ndarray]:
    """Angles at p2 between the bonds to p1 and p3 over (m, 3) rows, in
    [0, pi], and their validity mask; a row with coincident atoms is
    invalid and holds NaN."""
    p1, p2, p3 = (np.asarray(p, dtype=np.float64).reshape(-1, 3)
                  for p in (p1, p2, p3))
    u = p1 - p2
    v = p3 - p2
    valid = ~((row_norms(u) < _EPS) | (row_norms(v) < _EPS))
    angles = np.arctan2(row_norms(np.cross(u, v)), _dots(u, v))
    return np.where(valid, angles, np.nan), valid


def defined(kernel, *points) -> np.ndarray:
    """kernel(*points) (dihedrals or bond_angles) where every row must be
    valid; raises DegenerateGeometry otherwise."""
    angles, valid = kernel(*points)
    if not valid.all():
        raise DegenerateGeometry(
            "collinear atoms leave the torsion undefined" if kernel is dihedrals
            else "coincident atoms leave the bond angle undefined")
    return angles


def dihedral(p1, p2, p3, p4) -> float:
    """Signed torsion of the bond p2-p3: one row of dihedrals(). Raises
    DegenerateGeometry when either bonded triple is collinear."""
    return float(defined(dihedrals, p1, p2, p3, p4)[0])


def bond_angle(p1, p2, p3) -> float:
    """Angle at p2 between the bonds to p1 and p3, in [0, pi]: one row of
    bond_angles()."""
    return float(defined(bond_angles, p1, p2, p3)[0])


def _optional(values: np.ndarray) -> tuple:
    """NaN (undefined) entries become None, the rest Python floats."""
    return tuple(None if np.isnan(v) else float(v) for v in values)


@dataclass(frozen=True)
class DihedralSet:
    """Backbone torsions per residue; None at termini where undefined."""
    phi: tuple
    psi: tuple
    omega: tuple


@dataclass(frozen=True)
class VirtualAngleSet:
    """CA-trace bond angle kappa and torsion alpha; None where neighbours
    are missing (kappa: first/last, alpha: first and last two)."""
    kappa: tuple
    alpha: tuple


@dataclass(frozen=True)
class ChiSet:
    """Per-residue sidechain torsions, four slots each, None where the
    residue type defines fewer torsions or atoms are absent."""
    chi: tuple


def backbone_array(chain: Chain) -> tuple[np.ndarray, np.ndarray]:
    """(n, 4, 3) N/CA/C/O positions of a chain and their (n, 4) presence
    mask; absent atoms hold zero rows. Both are read-only."""
    return chain.table.backbone


def backbone_frames(table: AtomTable, rows=slice(None)) -> np.ndarray:
    """The (n, 3, 3) N/CA/C block of the backbone array of the residues
    rows of a table; raises MissingAtom for the first absent atom in
    residue order."""
    xyz, present = table.backbone
    missing = np.argwhere(~present[rows, :3])
    if len(missing):
        i, j = missing[0]
        i = np.arange(len(present))[rows][i]
        raise MissingAtom(f"{table.res_type[i]} {table.seq_index[i]}",
                          BACKBONE_ATOMS[j])
    return xyz[rows, :3]


def backbone_torsions(frames: np.ndarray) -> np.ndarray:
    """(n, 3) phi/psi/omega of an (n, 3, 3) N/CA/C array; NaN at termini.

    The atoms N0 CA0 C0 N1 ... in chain order make every consecutive
    quadruple a backbone torsion: psi(0), omega(0), phi(1), psi(1), ...
    Raises DegenerateGeometry on a collinear backbone triple.
    """
    atoms = frames.reshape(-1, 3)
    angles = defined(dihedrals, atoms[:-3], atoms[1:-2], atoms[2:-1], atoms[3:])
    padded = np.concatenate(([np.nan], angles, [np.nan, np.nan]))
    return padded[:len(atoms)].reshape(-1, 3)


def backbone_dihedrals(chain: Chain) -> DihedralSet:
    """phi/psi/omega for every residue of a chain.

    phi_i uses C(i-1)-N(i)-CA(i)-C(i); psi_i uses N(i)-CA(i)-C(i)-N(i+1);
    omega_i uses CA(i)-C(i)-N(i+1)-CA(i+1). Termini are None.
    """
    torsions = backbone_torsions(backbone_frames(chain.table))
    return DihedralSet(*(_optional(column) for column in torsions.T))


def virtual_angle_array(ca_trace) -> np.ndarray:
    """(n, 2) kappa/alpha of a CA trace, NaN where undefined (see
    virtual_angles)."""
    pts = np.asarray(ca_trace, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    if n < 2:
        raise TooFewNodes("need at least 2 CA positions")
    if np.any(row_norms(np.diff(pts, axis=0)) < _EPS):
        raise DegenerateGeometry("coincident consecutive CA positions")
    out = np.full((n, 2), np.nan)
    out[1:-1, 0] = bond_angles(pts[:-2], pts[1:-1], pts[2:])[0]
    # a collinear CA window leaves its torsion undefined (NaN)
    out[1:-2, 1] = dihedrals(pts[:-3], pts[1:-2], pts[2:-1], pts[3:])[0]
    return out


def virtual_angles(ca_trace) -> VirtualAngleSet:
    """Virtual bond angle kappa(i) over CA(i-1),CA(i),CA(i+1) and virtual
    torsion alpha(i) over CA(i-1)..CA(i+2)."""
    return VirtualAngleSet(*(_optional(column)
                             for column in virtual_angle_array(ca_trace).T))


def chi_angles(residues) -> np.ndarray:
    """(n, 4) chi1..chi4 per residue from the per-type atom quadruples,
    found by name in one AtomTable; NaN where the type defines fewer
    torsions or atoms are absent. Raises DegenerateGeometry on collinear
    atoms."""
    return table_chi(atom_table(residues))


def table_chi(table: AtomTable, rows=slice(None)) -> np.ndarray:
    """chi_angles of the residues rows of an AtomTable."""
    slots = table.slots(_CHI_NAMES)[rows]
    types = np.array([residue_index(t) for t in table.res_type[rows]],
                     dtype=np.int64)
    columns = _CHI_COLUMNS[types]  # (n, 4, 4)
    quads = np.where(columns >= 0,
                     slots[np.arange(len(slots))[:, None, None], columns], -1)
    present = (quads >= 0).all(axis=2)
    out = np.full(present.shape, np.nan)
    out[present] = defined(dihedrals,
                           *table.xyz[quads[present]].transpose(1, 0, 2))
    return out


def sidechain_torsions(residue: Residue) -> ChiSet:
    """chi1..chi4 from the per-type atom quadruples; missing atoms give None."""
    return ChiSet(_optional(chi_angles((residue,))[0]))


@dataclass(frozen=True)
class GraphTopology:
    """Directed edge list over num_nodes points; edges is an (E, 2) int
    array of (source, target) pairs."""
    num_nodes: int
    edges: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.int64)
        if edges.size and (edges.ndim != 2 or edges.shape[1] != 2):
            raise DimensionMismatch(
                f"edges must be an (E, 2) array, got shape {edges.shape}")
        edges = edges.reshape(-1, 2)
        object.__setattr__(self, "edges", edges)
        if edges.size:
            if np.any(edges[:, 0] == edges[:, 1]):
                raise DegenerateGeometry("self-loop in edge list")
            if edges.min() < 0 or edges.max() >= self.num_nodes:
                raise DegenerateGeometry("edge index out of range")

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a[0]), len(b[0])) squared distances between the points of two
    (3, m) coordinate arrays, summed as (dx² + dz²) + dy²."""
    d2, t = (np.subtract.outer(a[i], b[i]) for i in (0, 2))
    d2 *= d2
    d2 += np.square(t, out=t)
    d2 += np.square(np.subtract.outer(a[1], b[1], out=t), out=t)
    return d2


def knn_graph(points, k: int) -> GraphTopology:
    """Directed k-nearest-neighbour edges (j -> i) for each node i.

    Neighbours are ranked by squared Euclidean distance, summed as
    (dx² + dz²) + dy² (the order NumPy 2.4's einsum sums a difference tensor
    in), with ties broken toward the lower index; k is clamped to n-1. Edges
    are ordered by target node, then by (distance, index).

    Targets are ranked in blocks of KNN_BLOCK (32) rows against only the
    points inside the block's bounding box, grown on every axis by
    reach = sqrt(R²)·(1 + 1e-6) + 1e-9·(1 + max|p|), where R² is the largest
    of the rows' k-th squared distances among the block's own rows. The
    edges are those of ranking against all n points: a distance's bits do
    not depend on the candidate set; each row's k-th distance over all
    points is at most its k-th over the block, so at most R²; and a point at
    squared distance D <= R² has fl(dx²) <= D on every axis (rounded sums
    of non-negatives are monotone), so it lies inside the grown box, ties
    at the k-th value included. The absolute slack covers the rounding of
    the box bounds and differences whose squares underflow. A block of at
    most k rows (the last one, or every one when k >= KNN_BLOCK) ranks all
    n points. Memory is O(KNN_BLOCK * n). The gain needs spatially compact
    blocks, such as CA in chain order; see docs/featurisation.md.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    if n < 2:
        raise TooFewNodes("k-NN graph needs at least 2 points")
    check_k(k)
    if not np.isfinite(pts).all():
        raise DegenerateGeometry("non-finite point in k-NN graph")
    k = min(k, n - 1)
    edges = []
    xyz = np.ascontiguousarray(pts.T)
    slack = 1e-9 * (1.0 + np.abs(xyz).max())
    everything = np.arange(n)
    for lo in range(0, n, KNN_BLOCK):
        block = xyz[:, lo:lo + KNN_BLOCK]
        own, candidates = np.arange(block.shape[1]), everything
        if len(own) > k:
            d2 = _squared_distances(block, block)
            np.fill_diagonal(d2, np.inf)
            r2 = np.partition(d2, k - 1, axis=1)[:, k - 1].max()
            reach = np.sqrt(r2) * (1 + 1e-6) + slack
            low, high = block.min(axis=1) - reach, block.max(axis=1) + reach
            candidates = np.flatnonzero(((xyz >= low[:, None])
                                         & (xyz <= high[:, None])).all(axis=0))
        d2 = _squared_distances(block, xyz.take(candidates, axis=1))
        d2[own, np.searchsorted(candidates, lo + own)] = np.inf
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
        # >= k per row, rows ascending, columns ascending within a row, so
        # the stable lexsort breaks distance ties toward the lower index
        rows, cols = np.nonzero(d2 <= kth)
        order = np.lexsort((d2[rows, cols], rows))
        keep = order[np.arange(len(rows)) - np.searchsorted(rows, rows) < k]
        edges.append(np.stack((candidates[cols[keep]], rows[keep] + lo),
                              axis=1))
    return GraphTopology(n, np.concatenate(edges))


def edges_to_text(topology: GraphTopology) -> str:
    """Serialise edges as 'src<TAB>dst' lines: each source id in use is
    rendered once as 'src<TAB>', each target id as 'dst<LF>', gathered by
    edge."""
    (src, at_src), (dst, at_dst) = (
        np.unique(ids, return_inverse=True) for ids in topology.edges.T)
    fields = np.array(["%d\t" % i for i in src.tolist()]
                      + ["%d\n" % i for i in dst.tolist()], dtype=object)
    at = np.stack((at_src, at_dst + len(src)), axis=1)
    return "".join(fields[at].ravel().tolist())


def check_k(k: int) -> None:
    """Raise DegenerateConfiguration unless k >= 1."""
    if k < 1:
        raise DegenerateConfiguration(f"k must be >= 1, got {k}")


def check_cutoff(cutoff: float) -> None:
    """Raise DegenerateConfiguration unless cutoff is finite and > 0."""
    if not 0 < cutoff < np.inf:
        raise DegenerateConfiguration(
            f"cutoff must be finite and > 0, got {cutoff}")


def near_masks(points: np.ndarray, targets: np.ndarray,
               cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Masks over (m, 3) points and (t, 3) targets: True where a member of
    the other set lies within cutoff (inclusive, on squared distances).
    One uniform cell list: each member of the smaller set, in key order,
    searches the sorted keys of the larger one (cut to its box) over nine
    ranges of three x-adjacent cells; swapping the sets swaps the masks.
    Raises DegenerateGeometry on a non-finite coordinate."""
    check_cutoff(cutoff)
    hits = np.zeros(len(points), dtype=bool), np.zeros(len(targets), dtype=bool)
    if not (np.isfinite(points).all() and np.isfinite(targets).all()):
        raise DegenerateGeometry("non-finite point in proximity search")
    if not (len(points) and len(targets)):
        return hits
    small, large = (0, 1) if len(points) <= len(targets) else (1, 0)
    sets, grow = [points, targets], cutoff * (1 + 1e-6)  # one cell edge
    # only the larger set's members within a cell of the smaller's box can hit
    low, high = sets[small].min(axis=0) - grow, sets[small].max(axis=0) + grow
    kept = np.flatnonzero(np.logical_and.reduce([
        (c >= lo) & (c <= hi) for c, lo, hi in zip(sets[large].T, low, high)]))
    sets[large] = sets[large].take(kept, axis=0)
    both = np.concatenate(sets)
    # cells a hair wider than cutoff, so rounding never puts a pair within
    # cutoff two cells apart, and at least 2**-20 of the extent, so keys fit
    # in int64; numbered from 1, so a neighbour offset stays in the grid
    edge = max(grow, np.ptp(both) / 2**20)
    cells = np.floor((both - both.min(axis=0)) / edge).astype(np.int64) + 1
    strides = (cells.max() + 2) ** np.arange(3)
    keys = np.split(cells @ strides, [len(sets[0])])
    query_order, order = (np.argsort(keys[side]) for side in (small, large))
    queries, sorted_keys = keys[small][query_order], keys[large][order]
    for offset in np.ndindex(3, 3):
        near = queries + (np.asarray(offset) - 1) @ strides[1:]
        end = np.searchsorted(sorted_keys, near + 1, side="right")
        count = end - np.searchsorted(sorted_keys, near - 1)
        q = query_order[np.repeat(np.arange(len(near)), count)]
        t = order[np.arange(len(q)) + np.repeat(end - np.cumsum(count), count)]
        i, j = (q, t) if small == 0 else (t, q)
        close = np.sum((sets[0].take(i, axis=0) - sets[1].take(j, axis=0))**2,
                       axis=-1) <= cutoff * cutoff
        hits[small][q[close]] = True
        hits[large][kept[t[close]]] = True
    return hits


def edges_from_text(text: str, num_nodes: int | None = None) -> GraphTopology:
    """Parse edges_to_text() lines, skipping blank ones; raises
    MalformedRecord for a line that is not two tab-separated int64
    integers. Canonical text is read in one call, any other line by line."""
    edges = None
    if re.fullmatch(r"(?:-?[0-9]+\t-?[0-9]+\n)*", text):
        try:
            edges = np.array(text.split(), dtype=np.int64)
        except OverflowError:  # outside int64: the loop names the line
            pass
    if edges is None:
        pairs = []
        for line_no, line in enumerate(text.splitlines(), start=1):
            if line.strip():
                try:
                    s, t = map(int, line.strip().split("\t"))
                    if not (-2**63 <= s < 2**63 and -2**63 <= t < 2**63):
                        raise ValueError("integer outside int64")
                except ValueError as exc:
                    raise MalformedRecord(
                        line_no, f"expected two tab-separated integers: {exc}") from exc
                pairs.append((s, t))
        edges = np.asarray(pairs, dtype=np.int64)
    edges = edges.reshape(-1, 2)
    if num_nodes is None:
        num_nodes = int(edges.max()) + 1 if len(edges) else 0
    return GraphTopology(num_nodes, edges)


@dataclass(frozen=True)
class Superposition:
    """Rigid motion x -> rotation @ x + translation minimising RMSD."""
    rotation: np.ndarray
    translation: np.ndarray
    rmsd: float


def superpose(A, B) -> tuple[np.ndarray, np.ndarray]:
    """Kabsch superposition of each row of the (r, m, 3) stack A onto the
    same row of B: (r, 3, 3) proper rotations R (the reflection branch of
    the SVD corrected, so det(R) = +1) and (r, 3) translations t
    minimising the RMSD of R @ a + t against B. Raises
    DegenerateConfiguration for stacks of different shape, fewer than 3
    points or a collinear reference row, DegenerateGeometry on a
    non-finite point."""
    A, B = (np.asarray(p, dtype=np.float64) for p in (A, B))
    if A.shape != B.shape:
        raise DegenerateConfiguration("point sets differ in length")
    if A.shape[1] < 3:
        raise DegenerateConfiguration("need at least 3 points")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise DegenerateGeometry("non-finite point in superposition")
    a_mean = A.mean(axis=1)
    b_mean = B.mean(axis=1)
    Ac = A - a_mean[:, None]
    Bc = B - b_mean[:, None]
    sv = np.linalg.svd(Ac, compute_uv=False)
    if np.any(sv[:, 1] < 1e-9 * np.maximum(sv[:, 0], 1.0)):
        raise DegenerateConfiguration("reference points are collinear")
    U, _, Vt = np.linalg.svd(np.swapaxes(Ac, 1, 2) @ Bc)
    V, Ut = np.swapaxes(Vt, 1, 2), np.swapaxes(U, 1, 2)
    D = np.tile(np.eye(3), (len(A), 1, 1))
    D[:, 2, 2] = np.sign(np.linalg.det(V @ Ut))
    R = V @ D @ Ut
    return R, b_mean - (R @ a_mean[..., None])[..., 0]


def kabsch(A, B) -> Superposition:
    """Optimal proper-rotation superposition of A onto B: one row of
    superpose(), with the RMSD of the motion."""
    A, B = (np.asarray(p, dtype=np.float64).reshape(-1, 3) for p in (A, B))
    (R,), (t,) = superpose(A[None], B[None])
    residual = (A @ R.T + t) - B
    rmsd = float(np.sqrt(np.mean(np.sum(residual**2, axis=1))))
    return Superposition(R, t, rmsd)
