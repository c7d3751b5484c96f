"""Shared test utilities: rigid motions, independent oracles, fixtures.

Oracles here deliberately avoid the library's own code paths (pure-Python
arithmetic, different formulas) so they can arbitrate correctness.
"""

import math
from dataclasses import replace

import numpy as np

from foldkit.structure import Atom, Chain, Structure


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
    def move(atom):
        return replace(atom, position=R @ atom.position + t)

    chains = []
    for chain in s.chains:
        chains.append(Chain(chain.id, tuple(
            replace(res, atoms=tuple(move(a) for a in res.atoms))
            for res in chain.residues)))
    hetero = tuple(move(a) for a in s.hetero_atoms)
    return replace(s, chains=tuple(chains), hetero_atoms=hetero)


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
