"""Computations made apart from foldkit, used to check its outputs.

Nothing here imports foldkit. The PDB reader follows the documented
semantics (MODEL 1 only, altloc ' ' or 'A', waters dropped, residues
keyed by number and insertion code) and keeps every coordinate both as a
float and as exact integer milli-angstroms. Angles use plain Python
arithmetic with a different formula from foldkit's; distances for labels
use exact integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from gen import SIDECHAINS

CANONICAL = ("ALA", "ARG", "ASN", "ASP", "CYS", "GLN", "GLU", "GLY", "HIS",
             "ILE", "LEU", "LYS", "MET", "PHE", "PRO", "SER", "THR", "TRP",
             "TYR", "VAL")
VOCABULARY = CANONICAL + ("UNK", "MASK", "PAD")
# chi1..chi4 atom quadruples, read off the generator's z-matrix: the atom
# a chi torsion places, with the three atoms that define its frame.
CHI_QUADRUPLES = {
    res: [tuple(entry[1:4]) + (entry[0],) for entry in sorted(
        (e for e in atoms if e[6][0] == "chi" and e[6][2] == 0.0),
        key=lambda e: e[6][1])]
    for res, atoms in SIDECHAINS.items()}


def milli(text: str) -> int:
    """Exact integer thousandths of a fixed 3-decimal field."""
    text = text.strip()
    whole, _, frac = text.partition(".")
    if len(frac) != 3:
        raise ValueError(f"coordinate {text!r} does not have 3 decimals")
    value = int(whole.lstrip("-") or "0") * 1000 + int(frac)
    return -value if text.startswith("-") else value


@dataclass
class Residue:
    name: str
    seq: int
    icode: str
    atoms: dict = field(default_factory=dict)   # name -> (x, y, z) floats
    milli: dict = field(default_factory=dict)   # name -> (x, y, z) ints
    b_factor: dict = field(default_factory=dict)


@dataclass
class Model:
    chains: list          # [(chain_id, [Residue, ...])]
    hetero: list          # [(code, (x, y, z) ints)]

    @property
    def residues(self):
        return [res for _, residues in self.chains for res in residues]


def read_pdb(path: str) -> Model:
    chains: dict = {}
    order: list = []
    hetero = []
    models = 0
    with open(path) as fh:
        for line in fh:
            tag = line[:6].strip()
            if tag == "MODEL":
                models += 1
                continue
            if models > 1 or tag not in ("ATOM", "HETATM"):
                continue
            if line[16] not in (" ", "A"):
                continue
            res_name = line[17:20].strip()
            xyz_text = (line[30:38], line[38:46], line[46:54])
            xyz = tuple(float(t) for t in xyz_text)
            ints = tuple(milli(t) for t in xyz_text)
            if tag == "HETATM":
                if res_name != "HOH":
                    hetero.append((res_name, ints))
                continue
            chain_id = line[21]
            if chain_id not in chains:
                chains[chain_id] = {}
                order.append(chain_id)
            key = (int(line[22:26]), line[26].strip())
            res = chains[chain_id].setdefault(key, Residue(
                res_name if res_name in CANONICAL else "UNK", key[0], key[1]))
            name = line[12:16].strip()
            if name not in res.atoms:
                res.atoms[name] = xyz
                res.milli[name] = ints
                res.b_factor[name] = float(line[60:66])
    return Model([(cid, [chains[cid][k] for k in sorted(chains[cid])])
                  for cid in order], hetero)


def sub(u, v):
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def dihedral(p1, p2, p3, p4) -> float:
    """Torsion about p2-p3 from the projections of p1 and p4 onto the
    plane normal to the bond."""
    b1 = sub(p3, p2)
    norm = math.sqrt(_dot(b1, b1))
    b1 = (b1[0] / norm, b1[1] / norm, b1[2] / norm)
    b0 = sub(p1, p2)
    b2 = sub(p4, p3)
    f0, f2 = _dot(b0, b1), _dot(b2, b1)
    v = (b0[0] - f0 * b1[0], b0[1] - f0 * b1[1], b0[2] - f0 * b1[2])
    w = (b2[0] - f2 * b1[0], b2[1] - f2 * b1[1], b2[2] - f2 * b1[2])
    return math.atan2(_dot(_cross(b1, v), w), _dot(v, w))


def bond_angle(p1, p2, p3) -> float:
    u, v = sub(p1, p2), sub(p3, p2)
    c = _cross(u, v)
    return math.atan2(math.sqrt(_dot(c, c)), _dot(u, v))


def unit(v):
    norm = math.sqrt(_dot(v, v))
    return (v[0] / norm, v[1] / norm, v[2] / norm)


def positional_encoding(index: int, dim: int = 16) -> list:
    out = []
    for k in range(dim // 2):
        rate = index / 10000.0 ** (2.0 * k / dim)
        out += [math.sin(rate), math.cos(rate)]
    return out


def chain_angles(residues) -> list:
    """Per residue: [kappa, alpha, phi, psi, omega, chi1..chi4], None where
    undefined, for one chain of CA-bearing residues."""
    n = len(residues)
    ca = [r.atoms["CA"] for r in residues]
    rows = []
    for i, res in enumerate(residues):
        a = res.atoms
        row = [None] * 9
        if 0 < i < n - 1:
            row[0] = bond_angle(ca[i - 1], ca[i], ca[i + 1])
        if 0 < i < n - 2:
            row[1] = dihedral(ca[i - 1], ca[i], ca[i + 1], ca[i + 2])
        if i > 0:
            row[2] = dihedral(residues[i - 1].atoms["C"], a["N"], a["CA"], a["C"])
        if i < n - 1:
            nxt = residues[i + 1].atoms
            row[3] = dihedral(a["N"], a["CA"], a["C"], nxt["N"])
            row[4] = dihedral(a["CA"], a["C"], nxt["N"], nxt["CA"])
        for k, quad in enumerate(CHI_QUADRUPLES.get(res.name, ())):
            if all(name in a for name in quad):
                row[5 + k] = dihedral(*(a[name] for name in quad))
        rows.append(row)
    return rows


def knn_sources(points, target: int, k: int) -> list:
    """Brute-force k nearest neighbours of points[target], ranked by
    squared distance with ties to the lower index."""
    t = points[target]
    ranked = sorted(((p[0] - t[0]) ** 2 + (p[1] - t[1]) ** 2
                     + (p[2] - t[2]) ** 2, j)
                    for j, p in enumerate(points) if j != target)
    return [j for _, j in ranked[:k]]


def within_cutoff(atoms_milli: np.ndarray, targets_milli: np.ndarray,
                  cutoff: float) -> np.ndarray:
    """Per atom: any target within cutoff (inclusive), in exact integers."""
    limit = int(round(cutoff * 1000)) ** 2
    hit = np.zeros(len(atoms_milli), dtype=bool)
    if len(targets_milli) == 0:
        return hit
    t = np.asarray(targets_milli, dtype=np.int64)
    for start in range(0, len(atoms_milli), 256):
        a = np.asarray(atoms_milli[start:start + 256], dtype=np.int64)
        d2 = np.zeros((len(a), len(t)), dtype=np.int64)
        for axis in range(3):
            d = a[:, None, axis] - t[None, :, axis]
            d2 += d * d
        hit[start:start + 256] = (d2 <= limit).any(axis=1)
    return hit


def interface_labels(model: Model, cutoff: float) -> list:
    per_chain = [np.asarray([xyz for r in residues for xyz in r.milli.values()])
                 for _, residues in model.chains]
    labels = []
    for ci, (_, residues) in enumerate(model.chains):
        others = np.concatenate([a for cj, a in enumerate(per_chain) if cj != ci])
        hit = within_cutoff(per_chain[ci], others, cutoff)
        at = 0
        for res in residues:
            labels.append(int(hit[at:at + len(res.milli)].any()))
            at += len(res.milli)
    return labels


def metal_labels(model: Model, codes, cutoff: float) -> list:
    targets = np.asarray([xyz for code, xyz in model.hetero if code in codes])
    labels = []
    for res in model.residues:
        hit = within_cutoff(np.asarray(list(res.milli.values())), targets, cutoff)
        labels.append(int(hit.any()))
    return labels


def kabsch_rmsd(a, b) -> float:
    """RMSD of a onto b after the best proper rotation (numpy SVD)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a = a - a.mean(axis=0)
    b = b - b.mean(axis=0)
    u, _, vt = np.linalg.svd(a.T @ b)
    d = np.sign(np.linalg.det(u @ vt))
    rot = u @ np.diag([1.0, 1.0, d]) @ vt
    return float(np.sqrt(((a @ rot - b) ** 2).sum(axis=1).mean()))


def read_fkt(path: str) -> np.ndarray:
    """FKT1 tensor per docs/tensor-format.md."""
    with open(path, "rb") as fh:
        payload = fh.read()
    if payload[:4] != b"FKT1":
        raise ValueError(f"{path}: bad magic")
    rank = payload[4]
    dims = tuple(int.from_bytes(payload[5 + 4 * i:9 + 4 * i], "little")
                 for i in range(rank))
    data = np.frombuffer(payload, dtype="<f4", offset=5 + 4 * rank)
    if data.size != int(np.prod(dims)):
        raise ValueError(f"{path}: payload does not match dims {dims}")
    return data.reshape(dims)
