"""Shared test utilities: rigid motions, independent oracles, fixtures.

Oracles here deliberately avoid the library's own code paths (pure-Python
arithmetic, different formulas) so they can arbitrate correctness.
"""

import itertools
import math
from dataclasses import replace

import numpy as np

from foldkit.codec import (DEFAULT_GEOMETRY, backbone_walk, nerf_place,
                           to_internal)
from foldkit.errors import (CoordinateOverflow, DegenerateConfiguration,
                            DegenerateFrame, EmptyStructure, MalformedRecord,
                            NoCompleteResidues)
from foldkit.geometry import (Superposition, backbone_array, check_cutoff,
                              defined, dihedrals, wrap_angle)
from foldkit.gnn import gcp_frames, mlp_forward, rbf_expand
from foldkit.pdb import (_METHOD_TEXT, _format_date, _parse_method,
                         _parse_pdb_date)
from foldkit.residues import CHI_ATOMS, MAX_CHI, RESIDUE_INDEX
from foldkit.rng import make_rng
from foldkit.structure import (BACKBONE_ATOMS, Atom, Chain, Granularity,
                               Residue, Structure)
from foldkit.synth import random_chain


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    A = rng.standard_normal((3, 3))
    Q, R = np.linalg.qr(A)
    Q = Q @ np.diag(np.sign(np.diag(R)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def random_reflection(rng: np.random.Generator) -> np.ndarray:
    M = random_rotation(rng) @ np.diag([1.0, 1.0, -1.0])
    assert np.linalg.det(M) < 0
    return M


def transform_structure(s: Structure, R: np.ndarray, t: np.ndarray) -> Structure:
    def move(chain):
        return Chain(chain.id, tuple(replace(res, atoms=tuple(
            replace(atom, position=R @ atom.position + t)
            for atom in res.atoms)) for res in chain.residues))

    return replace(s, chains=tuple(map(move, s.chains)),
                   ligands=tuple(map(move, s.ligands)))


def jittered_chain(n: int, rng: np.random.Generator, sd: float) -> Chain:
    """random_chain(n, rng) with every atom moved by N(0, sd) noise per
    axis, drawn in atom order, so no bond length or angle is canonical."""
    table = random_chain(n, rng).table
    return Chain.from_table("A", replace(
        table, xyz=table.xyz + rng.normal(0.0, sd, table.xyz.shape)))


def with_atom(chain: Chain, index: int, name: str, position) -> Chain:
    """Chain whose residue `index` has atom `name` at position, replacing
    the atom of that name or appending it."""
    res = chain.residues[index]
    moved = Atom(name, name[0], np.asarray(position, dtype=np.float64),
                 serial=1000 + len(res.atoms))
    if res.atom(name) is None:
        atoms = res.atoms + (moved,)
    else:
        atoms = tuple(replace(a, position=moved.position) if a.name == name
                      else a for a in res.atoms)
    residues = list(chain.residues)
    residues[index] = replace(res, atoms=atoms)
    return replace(chain, residues=tuple(residues))


# --- independent geometry oracles ---

def dihedral_oracle(p1, p2, p3, p4) -> float:
    """Projection-onto-plane formulation, plain Python arithmetic."""
    def sub(u, v):
        return (u[0] - v[0], u[1] - v[1], u[2] - v[2])

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    def cross(u, v):
        return (u[1] * v[2] - u[2] * v[1],
                u[2] * v[0] - u[0] * v[2],
                u[0] * v[1] - u[1] * v[0])

    def scale(u, f):
        return (u[0] * f, u[1] * f, u[2] * f)

    axis = sub(p3, p2)
    axis = scale(axis, 1.0 / math.sqrt(dot(axis, axis)))
    v = sub(p1, p2)
    w = sub(p4, p3)
    v_perp = sub(v, scale(axis, dot(v, axis)))
    w_perp = sub(w, scale(axis, dot(w, axis)))
    y = dot(cross(v_perp, w_perp), axis)
    x = dot(v_perp, w_perp)
    angle = math.atan2(y, x)
    return -math.pi if angle >= math.pi else angle


def bond_angle_oracle(p1, p2, p3) -> float:
    """Law of cosines, plain Python arithmetic."""
    def d2(u, v):
        return sum((u[i] - v[i])**2 for i in range(3))

    a2, b2, c2 = d2(p1, p2), d2(p3, p2), d2(p1, p3)
    cosang = (a2 + b2 - c2) / (2.0 * math.sqrt(a2) * math.sqrt(b2))
    return math.acos(max(-1.0, min(1.0, cosang)))


def knn_oracle(points, k: int) -> list:
    """O(n^2) neighbour listing with the (distance, lower-index) tie rule,
    returned in the implementation's (target-major, rank-minor) order."""
    pts = [tuple(map(float, p)) for p in points]
    n = len(pts)
    kk = min(k, n - 1)
    edges = []
    for i in range(n):
        ranked = []
        for j in range(n):
            if j == i:
                continue
            d2 = sum((pts[i][c] - pts[j][c])**2 for c in range(3))
            ranked.append((d2, j))
        ranked.sort()
        for _, j in ranked[:kk]:
            edges.append((j, i))
    return edges


def knn_graph_oracle(points, k: int) -> np.ndarray:
    """The block loop that `foldkit.geometry.knn_graph` replaced, kept as
    the pin of its squared-distance sum: each block's distances come from
    einsum over a (256, n, 3) difference tensor. The block is its own
    literal, so the library's block size cannot move the oracle along with
    it. Returns the edges."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    k = min(k, n - 1)
    edges = []
    for lo in range(0, n, 256):
        diff = pts[lo:lo + 256, None, :] - pts[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        np.fill_diagonal(d2[:, lo:], np.inf)
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
        rows, cols = np.nonzero(d2 <= kth)  # >= k per row, rows ascending
        order = np.lexsort((cols, d2[rows, cols], rows))
        keep = order[np.arange(len(rows)) - np.searchsorted(rows, rows) < k]
        edges.append(np.stack((cols[keep], rows[keep] + lo), axis=1))
    return np.concatenate(edges)


def within_cutoff_oracle(points: np.ndarray, targets: np.ndarray,
                         cutoff: float) -> np.ndarray:
    """The proximity search that `foldkit.geometry.near_masks` replaced,
    kept verbatim: a mask over (m, 3) points, True where one of the
    targets lies within cutoff (inclusive, on squared distances), by a
    uniform cell list: each point searches the 27 cells around its own
    among the sorted targets."""
    check_cutoff(cutoff)
    hit = np.zeros(len(points), dtype=bool)
    both = np.concatenate((points, targets))
    # cells a hair wider than cutoff, so rounding never puts a pair within
    # cutoff two cells apart, and at least 2**-20 of the extent, so keys fit
    # in int64; numbered from 1, so a neighbour offset stays in the grid
    edge = max(cutoff * (1 + 1e-6), np.ptp(both) / 2**20)
    cells = np.floor((both - both.min(axis=0)) / edge).astype(np.int64) + 1
    strides = (cells.max() + 2) ** np.arange(3)
    point_keys, target_keys = np.split(cells @ strides, [len(points)])
    order = np.argsort(target_keys)
    sorted_keys = target_keys[order]
    for offset in np.ndindex(3, 3, 3):
        near = point_keys + (np.asarray(offset) - 1) @ strides
        end = np.searchsorted(sorted_keys, near, side="right")
        count = end - np.searchsorted(sorted_keys, near)
        q = np.repeat(np.arange(len(points)), count)
        t = order[np.arange(len(q)) + np.repeat(end - np.cumsum(count), count)]
        hit[q[np.sum((points[q] - targets[t])**2, axis=-1) <= cutoff * cutoff]] = True
    return hit


def proximity_oracle(residue_atom_positions, target_positions, cutoff):
    """All-pairs residue labels: 1 iff any atom-target pair is <= cutoff."""
    labels = []
    for atoms in residue_atom_positions:
        hit = 0
        for a in atoms:
            for t in target_positions:
                d = math.sqrt(sum((a[i] - t[i])**2 for i in range(3)))
                if d <= cutoff:
                    hit = 1
                    break
            if hit:
                break
        labels.append(hit)
    return labels


def nerf_place_oracle(a, b, c, length: float, bond_angle_value: float,
                      torsion: float) -> np.ndarray:
    """The numpy-on-3-vectors NeRF step that `foldkit.codec.nerf_place`
    replaced, kept as its reference."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if length <= 0.0:
        raise DegenerateFrame("bond length must be positive")
    bc = b - c
    nbc = np.linalg.norm(bc)
    if nbc < 1e-12:
        raise DegenerateFrame("coincident frame atoms b and c")
    bc /= nbc
    n = np.cross(b - a, bc)
    nn = np.linalg.norm(n)
    if not np.isfinite(nn) or nn < 1e-12:
        raise DegenerateFrame("collinear frame atoms")
    n /= nn
    m = np.cross(n, bc)
    d_local = length * np.array([
        np.cos(bond_angle_value),
        np.sin(bond_angle_value) * np.cos(torsion),
        np.sin(bond_angle_value) * np.sin(torsion),
    ])
    return c + d_local[0] * bc + d_local[1] * m - d_local[2] * n


def backbone_walk_oracle(ic) -> np.ndarray:
    """(n, 4, 3) N/CA/C/O placed one nerf_place_oracle call at a time, as
    the codec's reconstruction loop did before backbone_walk."""
    g = DEFAULT_GEOMETRY
    n = ic.n_residues
    phi, psi, omega = ic.torsions.T
    theta_n, theta_ca, theta_c = ic.angles.T
    N, CA, C = np.empty((n, 3)), np.empty((n, 3)), np.empty((n, 3))
    N[0], CA[0], C[0] = ic.anchor
    for i in range(n - 1):
        N[i + 1] = nerf_place_oracle(N[i], CA[i], C[i], g.c_n,
                                     theta_ca[i], psi[i])
        CA[i + 1] = nerf_place_oracle(CA[i], C[i], N[i + 1], g.n_ca,
                                      theta_c[i], omega[i])
        C[i + 1] = nerf_place_oracle(C[i], N[i + 1], CA[i + 1], g.ca_c,
                                     theta_n[i + 1], phi[i + 1])
    O = [nerf_place_oracle(N[i], CA[i], C[i], g.c_o, g.angle_ca_c_o,
                           wrap_angle(psi[i] + np.pi)) for i in range(n)]
    return np.stack([N, CA, C, np.asarray(O)], axis=1)


def kabsch_oracle(A, B) -> Superposition:
    """The one-pair Kabsch superposition that `foldkit.geometry.superpose`
    replaced, kept as its reference."""
    A = np.asarray(A, dtype=np.float64).reshape(-1, 3)
    B = np.asarray(B, dtype=np.float64).reshape(-1, 3)
    if len(A) != len(B):
        raise DegenerateConfiguration("point sets differ in length")
    if len(A) < 3:
        raise DegenerateConfiguration("need at least 3 points")
    a_mean = A.mean(axis=0)
    b_mean = B.mean(axis=0)
    Ac = A - a_mean
    Bc = B - b_mean
    sv = np.linalg.svd(Ac, compute_uv=False)
    if sv[1] < 1e-9 * max(sv[0], 1.0):
        raise DegenerateConfiguration("reference points are collinear")
    H = Ac.T @ Bc
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    D = np.diag([1.0, 1.0, d])
    R = Vt.T @ D @ U.T
    t = b_mean - R @ a_mean
    residual = (A @ R.T + t) - B
    rmsd = float(np.sqrt(np.mean(np.sum(residual**2, axis=1))))
    return Superposition(R, t, rmsd)


def corrupt_torsions_oracle(chain: Chain, sigma: float, rng,
                            walk=backbone_walk) -> np.ndarray:
    """(m, 3) atom positions of `foldkit.tasks.corrupt_torsions`, placed one
    atom at a time with one kabsch_oracle call per residue that has a
    non-backbone atom, as the per-residue loop did before superpose. The
    backbone comes from `walk`: backbone_walk_oracle makes the oracle
    independent of the library's walk."""
    ic = to_internal(chain)
    noise = rng.standard_normal((ic.n_residues, 3)) * sigma
    noise[~ic.defined_torsions] = 0.0
    noised = np.mod(ic.torsions + noise + np.pi, 2.0 * np.pi) - np.pi
    noised[~ic.defined_torsions] = 0.0
    walked = walk(replace(ic, torsions=noised))
    names = ("N", "CA", "C", "O")
    coords = []
    for res, before, after in zip(chain.residues, backbone_array(chain)[0],
                                  walked):
        motion = None
        for atom in res.atoms:
            if atom.name in names:
                coords.append(after[names.index(atom.name)])
                continue
            if motion is None:
                motion = kabsch_oracle(before[:3], after[:3])
            coords.append(motion.rotation @ atom.position + motion.translation)
    return np.asarray(coords)


def corrupt_sequence_mutate_oracle(residues, nu: float, rng):
    """(corrupted, positions) of `foldkit.tasks.corrupt_sequence_mutate`
    from the per-position loop that one batched draw replaced, kept as its
    reference: positions as floor(nu * n) sorted picks without
    replacement, then one scalar integers() draw per position."""
    residues = np.asarray(residues, dtype=np.int64)
    m = int(np.floor(nu * len(residues)))
    positions = (np.sort(rng.choice(len(residues), size=m, replace=False))
                 if m else np.empty(0, dtype=np.int64))
    corrupted = residues.copy()
    for p in positions:
        original = residues[p]
        if original < 20:
            draw = int(rng.integers(0, 19))
            corrupted[p] = draw if draw < original else draw + 1
        else:
            corrupted[p] = int(rng.integers(0, 20))
    return corrupted, positions


def backbone_array_oracle(chain: Chain):
    """The per-residue Residue.atom loop that `foldkit.geometry.backbone_array`
    replaced, kept as its reference."""
    xyz = np.zeros((len(chain.residues), len(BACKBONE_ATOMS), 3))
    present = np.zeros(xyz.shape[:2], dtype=bool)
    for i, res in enumerate(chain.residues):
        for j, name in enumerate(BACKBONE_ATOMS):
            atom = res.atom(name)
            if atom is not None:
                xyz[i, j] = atom.position
                present[i, j] = True
    return xyz, present


def chi_angles_oracle(residues) -> np.ndarray:
    """The per-residue Residue.atom loop that `foldkit.geometry.chi_angles`
    replaced, kept as its reference."""
    quads = np.zeros((len(residues), MAX_CHI, 4, 3))
    present = np.zeros((len(residues), MAX_CHI), dtype=bool)
    for i, res in enumerate(residues):
        for k, names in enumerate(CHI_ATOMS.get(res.res_type, ())):
            atoms = [res.atom(name) for name in names]
            if all(a is not None for a in atoms):
                quads[i, k] = [a.position for a in atoms]
                present[i, k] = True
    out = np.full(present.shape, np.nan)
    out[present] = defined(dihedrals, *quads[present].transpose(1, 0, 2))
    return out


def select_granularity_oracle(s: Structure, level: Granularity) -> Structure:
    """The per-residue Residue.atom loop that
    `foldkit.structure.select_granularity` replaced, kept as its reference
    (without the warning)."""
    if level is Granularity.ALL_ATOM:
        return s
    wanted = ("CA",) if level is Granularity.CA_ONLY else BACKBONE_ATOMS
    new_chains = []
    for chain in s.chains:
        kept = []
        for res in chain.residues:
            atoms = tuple(a for name in wanted if (a := res.atom(name)) is not None)
            if len(atoms) == len(wanted):
                kept.append(Residue(res.res_type, res.seq_index,
                                    res.insertion_code, atoms))
        if kept:
            new_chains.append(Chain(chain.id, tuple(kept)))
    if not new_chains:
        raise NoCompleteResidues(f"no residue has all of {wanted}")
    return replace(s, chains=tuple(new_chains))


def plddt_values_oracle(s: Structure) -> np.ndarray:
    """The per-residue values loop that `foldkit.tasks.plddt_targets`
    replaced (before scaling), kept as its reference."""
    values = []
    for _, res in s.iter_residues():
        atom = res.atom("CA") or (res.atoms[0] if res.atoms else None)
        values.append(atom.b_factor if atom is not None else 0.0)
    return np.asarray(values, dtype=np.float64)


def silu_oracle(x: np.ndarray) -> np.ndarray:
    """The two-branch masked SiLU that `foldkit.gnn._activate` replaced,
    kept as its reference."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = x[pos] / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])  # split keeps exp from overflowing
    out[~pos] = x[~pos] * ex / (1.0 + ex)
    return out


def aggregate_oracle(values: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """The `np.add.at` scatter that `foldkit.gnn._message_sums` replaced,
    kept as its reference: each node sums its incoming values in stored-edge
    order, starting from 0.0."""
    out = np.zeros((n,) + values.shape[1:])
    np.add.at(out, dst, values)
    return out


def mlp_forward_oracle(p, x: np.ndarray) -> np.ndarray:
    """The `x @ W.T + b` forward pass that `foldkit.gnn.mlp_forward`
    replaced, with `silu_oracle` between layers, for a batch of row
    vectors."""
    last = len(p.weights) - 1
    for i, (W, b) in enumerate(zip(p.weights, p.biases)):
        x = x @ W.T + b
        if i != last:
            x = silu_oracle(x)
    return x


def _edge_rows_oracle(X, topology):
    src, dst = topology.edges[:, 0], topology.edges[:, 1]
    diff = X[dst] - X[src]
    return src, dst, diff, np.linalg.norm(diff, axis=1)


def schnet_layer_oracle(S, X, topology, p):
    """`foldkit.gnn.schnet_layer` over the whole edge list at once, in
    stored-edge order, summed by `aggregate_oracle`."""
    src, dst, _, dist = _edge_rows_oracle(X, topology)
    filters = mlp_forward(p.filter_mlp, rbf_expand(dist, p))
    return S + aggregate_oracle(S[src] * filters, dst, len(S))


def egnn_layer_oracle(S, X, topology, p):
    """The concatenated-row forward that `foldkit.gnn.egnn_layer` replaced,
    kept as its reference: both edge MLPs read the rows [S[dst], S[src],
    dist], in stored-edge order, summed by `aggregate_oracle`."""
    src, dst, diff, dist = _edge_rows_oracle(X, topology)
    edge_in = np.concatenate([S[dst], S[src], dist[:, None]], axis=1)
    agg = aggregate_oracle(mlp_forward(p.message_mlp, edge_in), dst, len(S))
    S_out = mlp_forward(p.update_mlp, np.concatenate([S, agg], axis=1))
    gates = mlp_forward(p.coord_mlp, edge_in)
    return S_out, X + aggregate_oracle(diff * gates, dst, len(S))


def gcp_layer_oracle(S, V, X, topology, p):
    """The concatenated-row forward that `foldkit.gnn.gcp_layer` replaced,
    kept as its reference: both edge MLPs read the rows [S[dst], S[src],
    frame projections of V[dst] and V[src], dist] in stored-edge order."""
    src, dst, _, dist = _edge_rows_oracle(X, topology)
    frames = gcp_frames(X, topology)
    n_vec = V.shape[1]

    def project(vecs):
        return np.stack([np.einsum("evk,ek->ev", vecs, ax)
                         for ax in (frames.a, frames.b, frames.c)],
                        axis=2).reshape(len(src), 3 * n_vec)

    inv = np.concatenate([S[dst], S[src], project(V[dst]), project(V[src]),
                          dist[:, None]], axis=1)
    msg_s = mlp_forward(p.message_mlp, inv)
    gates = mlp_forward(p.gate_mlp, inv).reshape(len(src), n_vec, 5)
    msg_v = (gates[:, :, 0:1] * frames.a[:, None, :]
             + gates[:, :, 1:2] * frames.b[:, None, :]
             + gates[:, :, 2:3] * frames.c[:, None, :]
             + gates[:, :, 3:4] * V[dst]
             + gates[:, :, 4:5] * V[src])
    agg_s = aggregate_oracle(msg_s, dst, len(S))
    S_out = S + mlp_forward(p.node_mlp, np.concatenate([S, agg_s], axis=1))
    return S_out, V + aggregate_oracle(msg_v, dst, len(S))


def noise_predictor_oracle(S, X, topology, p):
    """The concatenated-row forward that `foldkit.gnn.noise_predictor`
    replaced, kept as its reference: the score MLP reads the rows
    [S[dst], S[src], dist embedding] in stored-edge order."""
    src, dst, diff, dist = _edge_rows_oracle(X, topology)
    embedded = mlp_forward(p.dist_mlp, dist[:, None])
    scores = mlp_forward(p.score_mlp,
                         np.concatenate([S[dst], S[src], embedded], axis=1))
    return aggregate_oracle(scores * (diff / dist[:, None]), dst, len(S))


def full_atom_dimer() -> Structure:
    """Two-chain full-atom structure with every kind of metadata a
    corruption must keep: side chains grown by nerf_place (CB, CG, CD),
    numbering from 5 with one insertion code, distinct non-zero
    occupancies and b-factors, serials with a gap between the chains,
    one residue without O, an OXT and a ZN ligand in chain B."""
    chains = []
    for chain_id, n, seed, first_serial in (("A", 9, 301, 1), ("B", 7, 302, 501)):
        serial = itertools.count(first_serial)
        residues = []
        for i, res in enumerate(random_chain(n, make_rng(seed),
                                             chain_id=chain_id).residues):
            xyz = {a.name: a.position for a in res.atoms}
            if chain_id == "A" and i == 4:
                del xyz["O"]
            if res.res_type != "GLY":
                xyz["CB"] = nerf_place(xyz["C"], xyz["N"], xyz["CA"],
                                       1.53, 1.92, 2.14)
            if res.res_type not in ("GLY", "ALA"):
                xyz["CG"] = nerf_place(xyz["N"], xyz["CA"], xyz["CB"],
                                       1.52, 1.94, -1.1 + 0.3 * i)
                xyz["CD"] = nerf_place(xyz["CA"], xyz["CB"], xyz["CG"],
                                       1.52, 1.94, 2.9 - 0.2 * i)
            if chain_id == "B" and i == n - 1:
                xyz["OXT"] = nerf_place(xyz["N"], xyz["CA"], xyz["C"],
                                        1.25, 2.05, 0.4)
            atoms = tuple(
                Atom(name, name[0], p, occupancy=round(0.3 + 0.07 * j, 2),
                     b_factor=round(11.5 + 3.0 * i + 0.25 * j, 2),
                     serial=next(serial))
                for j, (name, p) in enumerate(xyz.items()))
            # chain A numbers 5 6 7 7A 8 ..., chain B 5 6 7 8 ...
            seq = 5 + i - (chain_id == "A" and i >= 3)
            icode = "A" if (chain_id, i) == ("A", 3) else None
            residues.append(Residue(res.res_type, seq, icode, atoms))
        chains.append(Chain(chain_id, tuple(residues)))
    zn = Atom("ZN", "ZN", np.array([1.5, -2.0, 3.25]), occupancy=0.9,
              b_factor=42.0, serial=900)
    return Structure("FULL", tuple(chains), ligands=(
        Chain("B", (Residue("ZN", 501, None, (zn,)),)),))


def angle_close(a, b, tol):
    """Distance on the circle, handles the +-pi seam."""
    d = abs(a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d) <= tol


# --- hand-rolled PDB record builder for parse tests ---

def atom_line(serial, name, res, chain, seq, x, y, z, altloc=" ", icode=" ",
              occ=1.0, b=0.0, element=None, record="ATOM"):
    if element is None:
        element = name[0]
    name_field = name.ljust(4) if len(name) >= 4 else f" {name:<3s}"
    return (f"{record:<6s}{serial:5d} {name_field}{altloc}{res:>3s} "
            f"{chain}{seq:4d}{icode}   {x:8.3f}{y:8.3f}{z:8.3f}"
            f"{occ:6.2f}{b:6.2f}          {element:>2s}")


# --- reference PDB parser ---

def _field_oracle(line: str, start: int, end: int) -> str:
    return line[start:end] if len(line) > start else ""


def _parse_atom_line_oracle(line: str, line_no: int):
    """Decode one ATOM/HETATM record; raises MalformedRecord on bad fields."""
    if len(line) < 54:
        raise MalformedRecord(line_no, "record shorter than coordinate fields")
    try:
        serial = int(line[6:11])
    except ValueError as exc:
        raise MalformedRecord(line_no, f"bad serial: {exc}") from exc
    name = line[12:16].strip()
    if not name:
        raise MalformedRecord(line_no, "blank atom name")
    altloc = line[16]
    res_name = line[17:20].strip()
    chain_id = line[21]
    try:
        seq_index = int(line[22:26])
    except ValueError as exc:
        raise MalformedRecord(line_no, f"bad residue number: {exc}") from exc
    icode = line[26] if line[26] != " " else None
    try:
        x = float(line[30:38])
        y = float(line[38:46])
        z = float(line[46:54])
    except ValueError as exc:
        raise MalformedRecord(line_no, f"bad coordinates: {exc}") from exc
    if not (np.isfinite(x) and np.isfinite(y) and np.isfinite(z)):
        raise MalformedRecord(line_no, "non-finite coordinates")
    try:
        occupancy = float(_field_oracle(line, 54, 60) or 1.0)
    except ValueError:
        occupancy = 1.0
    try:
        b_factor = float(_field_oracle(line, 60, 66) or 0.0)
    except ValueError:
        b_factor = 0.0
    # a non-finite occupancy or b-factor reads as its default, like a
    # garbled one
    if not math.isfinite(occupancy):
        occupancy = 1.0
    if not math.isfinite(b_factor):
        b_factor = 0.0
    element = _field_oracle(line, 76, 78).strip()
    if not element:
        element = next((c for c in name if c.isalpha()), "X")
    occupancy = min(max(occupancy, 0.0), 1.0)
    return (serial, name, altloc, res_name, chain_id, seq_index, icode,
            np.array([x, y, z]), occupancy, b_factor, element)


def parse_pdb_oracle(text: str, structure_id: str = "") -> Structure:
    """The per-line parser that `foldkit.pdb.parse_pdb` replaced, kept as its
    reference: one record at a time, one numpy array per atom.

    ATOM records make the chains and the non-water HETATM records the
    ligand chains, each grouped the same way; only polymer residue types
    outside the vocabulary read as UNK.

    Raises MalformedRecord for an un-parseable ATOM/HETATM line and
    EmptyStructure when neither polymer nor ligand atoms parse.
    """
    resolution = None
    dep_date = None
    method = None
    # record tag -> chain id -> residue key -> (res_name, [atoms]), each
    # dict in first-seen order
    groups: dict[str, dict] = {"ATOM": {}, "HETATM": {}}
    seen_serials: set[int] = set()
    models_seen = 0

    for line_no, line in enumerate(text.splitlines(), start=1):
        rec = line[:6]
        tag = rec.strip()
        if tag == "MODEL":
            models_seen += 1
            continue
        if models_seen > 1:
            continue  # MODEL 1 only
        if tag == "HEADER":
            parsed = _parse_pdb_date(_field_oracle(line, 50, 59))
            if parsed is not None:
                dep_date = parsed
            header_id = _field_oracle(line, 62, 66).strip()
            if header_id:
                structure_id = header_id  # HEADER id wins over the fallback
            continue
        if tag == "EXPDTA":
            method = _parse_method(line[10:].strip())
            continue
        if tag == "REMARK" and _field_oracle(line, 6, 10).strip() == "2":
            for token in line[10:].replace("RESOLUTION.", " ").split():
                try:
                    value = float(token)
                except ValueError:
                    continue
                if math.isfinite(value):  # the first finite number
                    resolution = value
                    break
            continue
        if tag not in ("ATOM", "HETATM"):
            continue

        (serial, name, altloc, res_name, chain_id, seq_index, icode,
         pos, occ, b, element) = _parse_atom_line_oracle(line, line_no)
        if altloc not in (" ", "A"):
            continue
        while serial in seen_serials:
            serial += 1
        seen_serials.add(serial)

        if tag == "HETATM" and res_name == "HOH":
            continue
        residues = groups[tag].setdefault(chain_id, {})
        key = (seq_index, icode or "")
        if key not in residues:
            if tag == "ATOM" and res_name not in RESIDUE_INDEX:
                res_name = "UNK"
            residues[key] = (res_name, seq_index, icode, [])
        _, _, _, atoms = residues[key]
        if any(a.name == name for a in atoms):
            continue  # duplicate atom name after altloc resolution
        atoms.append(Atom(name, element, pos, occ, b, serial=serial))

    chains, ligands = [], []
    for tag, built in (("ATOM", chains), ("HETATM", ligands)):
        for cid, residues in groups[tag].items():
            built.append(Chain(cid, tuple(
                Residue(res_type, seq_index, icode, tuple(atoms))
                for _, (res_type, seq_index, icode, atoms)
                in sorted(residues.items()))))
    if not chains and not ligands:
        raise EmptyStructure("no ATOM or HETATM records parsed")
    return Structure(structure_id, tuple(chains), resolution, dep_date,
                     method, tuple(ligands))


# --- reference PDB writer ---

def _format_coord_oracle(value: float) -> str:
    if not math.isfinite(value):
        raise CoordinateOverflow(f"non-finite coordinate {value}")
    text = f"{value:8.3f}"
    if len(text) > 8:
        raise CoordinateOverflow(f"coordinate {value} exceeds the 8-column field")
    return text


def _format_atom_name_oracle(name: str) -> str:
    # Short names start at column 14 per convention; 4-char names fill 13-16.
    return name[:4].ljust(4) if len(name) >= 4 else f" {name:<3s}"


def _atom_record_oracle(tag: str, serial: int, name: str, res_name: str,
                        chain_id: str, seq_index: int, icode: str, x: float,
                        y: float, z: float, occupancy: float, b_factor: float,
                        element: str) -> str:
    return (f"{tag:<6s}{serial:5d} {_format_atom_name_oracle(name)} "
            f"{res_name:>3s} {chain_id:1s}{seq_index:4d}{icode:1s}   "
            f"{_format_coord_oracle(x)}{_format_coord_oracle(y)}"
            f"{_format_coord_oracle(z)}"
            f"{occupancy:6.2f}{b_factor:6.2f}"
            f"          {element[:2]:>2s}")


def write_pdb_oracle(s: Structure) -> str:
    """The per-atom writer that `foldkit.pdb.write_pdb` replaced, kept as
    its reference: one f-string record per atom. Render a Structure as
    PDB v3.3 text.

    Raises CoordinateOverflow for any coordinate that does not fit the
    8-column fixed-width field (|c| >= 10000, or c <= -1000).
    """
    lines = []
    date_text = _format_date(s.deposition_date) if s.deposition_date else ""
    lines.append(f"HEADER{'':44s}{date_text:<12s}{s.id[:4]:>4s}")
    if s.method is not None:
        lines.append(f"EXPDTA    {_METHOD_TEXT[s.method]}")
    if s.resolution is not None:
        lines.append(f"REMARK   2 RESOLUTION. {s.resolution:7.2f} ANGSTROMS.")
    for tag, chains in (("ATOM", s.chains), ("HETATM", s.ligands)):
        for chain in chains:
            t = chain.table
            names = list(t.codes)
            # MASK has no PDB code; written as MSK (re-parses as UNK).
            residues = [("MSK" if res_type == "MASK" else res_type[:3],
                         seq_index, icode or " ")
                        for res_type, seq_index, icode in zip(
                            t.res_type.tolist(), t.seq_index.tolist(),
                            t.icode.tolist())]
            for owner, serial, code, xyz, occupancy, b_factor, element in zip(
                    t.owner.tolist(), t.serial.tolist(), t.names.tolist(),
                    t.xyz.tolist(), t.occupancy.tolist(), t.b_factor.tolist(),
                    t.element.tolist()):
                res_name, seq_index, icode = residues[owner]
                lines.append(_atom_record_oracle(
                    tag, serial, names[code], res_name, chain.id, seq_index,
                    icode, *xyz, occupancy, b_factor, element))
            if tag == "ATOM":
                lines.append("TER")
    lines.append("END")
    return "\n".join(lines) + "\n"


def edges_to_text_oracle(topology) -> str:
    """The generator form `foldkit.geometry.edges_to_text` replaced."""
    return "".join(f"{s}\t{t}\n" for s, t in topology.edges.tolist())


def edges_from_text_oracle(text: str) -> np.ndarray:
    """The per-line reader that `foldkit.geometry.edges_from_text` keeps
    only for non-canonical text, as its reference: the (E, 2) int64 edge
    array, or MalformedRecord for the first line that is not two
    tab-separated int64 integers."""
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
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
