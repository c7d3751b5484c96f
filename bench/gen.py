"""Seeded input generator for the benchmark workloads.

Imports nothing from foldkit: it has its own NeRF placement and its own
fixed-width PDB writer, so every commit under test reads byte-identical
inputs for a given (workload, seed). Usage:

    python3 bench/gen.py --workload corpus --seed 1 --out DIR

writes DIR/*.pdb and prints the SHA-256 of the input set.

Make-up (sizes are fixed; the seed draws residue order, torsions,
rotamers, jitter, numbering offsets, b-factors and the placement of
sites):

* corpus / codec: single-chain, full-atom predicted models with
  pLDDT-like b-factors, residue numbering that starts above 1 and about
  0.02 A of per-coordinate jitter, so bond lengths are not canonical.
* assembly: multi-chain complexes whose chains are packed into contact,
  with ZN sites on cysteines, HOH records and altloc A/B side chains.

Every chain has the residue composition of FREQ, shuffled by the seed,
so the number of atoms, and with it the work and the memory, is the same
for every seed. FREQ is the amino-acid composition of UniProtKB/Swiss-Prot
rounded to 0.1 %. The chain lengths and the torsion basin weights are
chosen, not measured from any database: the corpus spreads over 96-440
residues, the codec chains are 300 residues or longer so that the known
drift fault shows on every chain (see README.md), and one assembly is in
the low thousands of residues.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import random

import numpy as np

# Canonical backbone geometry and residue frequencies (Swiss-Prot, %).
N_CA, CA_C, C_N, C_O = 1.458, 1.525, 1.329, 1.231
ANG_N_CA_C, ANG_CA_C_N, ANG_C_N_CA, ANG_CA_C_O = 111.0, 116.2, 121.7, 120.5
FREQ = {"ALA": 8.3, "ARG": 5.5, "ASN": 4.1, "ASP": 5.5, "CYS": 1.4,
        "GLN": 3.9, "GLU": 6.7, "GLY": 7.1, "HIS": 2.3, "ILE": 5.9,
        "LEU": 9.7, "LYS": 5.8, "MET": 2.4, "PHE": 3.9, "PRO": 4.7,
        "SER": 6.6, "THR": 5.3, "TRP": 1.1, "TYR": 2.9, "VAL": 6.9}

# Side-chain z-matrix: (atom, a, b, c, bond, angle_deg, torsion), where
# torsion is ("chi", k, offset_deg) for atoms set by chi k+1, whose
# (a, b, c, atom) is the residue type's chi quadruple, or ("fix", deg).
_CB = ("CB", "C", "N", "CA", 1.530, 110.5, ("fix", -122.6))
_SP3 = (1.530, 111.0)


def _chain_atoms(*names, bond=_SP3):
    """Unbranched chain of chi-driven atoms after CB."""
    frame = ["N", "CA", "CB"]
    out = []
    for k, name in enumerate(names):
        b, a = bond[k] if isinstance(bond, list) else bond
        out.append((name, frame[-3], frame[-2], frame[-1], b, a, ("chi", k, 0.0)))
        frame.append(name)
    return out


def _ring6(extra=()):
    # CG then the planar six-ring CD1..CZ, optionally a para substituent.
    return ([("CG", "N", "CA", "CB", 1.50, 114.0, ("chi", 0, 0.0)),
             ("CD1", "CA", "CB", "CG", 1.39, 120.0, ("chi", 1, 0.0)),
             ("CD2", "CA", "CB", "CG", 1.39, 120.0, ("chi", 1, 180.0)),
             ("CE1", "CB", "CG", "CD1", 1.39, 120.0, ("fix", 180.0)),
             ("CE2", "CB", "CG", "CD2", 1.39, 120.0, ("fix", 180.0)),
             ("CZ", "CG", "CD1", "CE1", 1.39, 120.0, ("fix", 0.0))]
            + list(extra))


SIDECHAINS = {
    "GLY": [],
    "ALA": [_CB],
    "SER": [_CB] + _chain_atoms("OG", bond=[(1.42, 111.0)]),
    "CYS": [_CB] + _chain_atoms("SG", bond=[(1.81, 114.0)]),
    "VAL": [_CB] + _chain_atoms("CG1") + [
        ("CG2", "N", "CA", "CB", 1.53, 110.5, ("chi", 0, 120.0))],
    "THR": [_CB] + _chain_atoms("OG1", bond=[(1.43, 109.5)]) + [
        ("CG2", "N", "CA", "CB", 1.53, 110.5, ("chi", 0, -120.0))],
    "ILE": [_CB] + _chain_atoms("CG1", "CD1") + [
        ("CG2", "N", "CA", "CB", 1.53, 110.5, ("chi", 0, -120.0))],
    "LEU": [_CB] + _chain_atoms("CG", "CD1") + [
        ("CD2", "CA", "CB", "CG", 1.53, 110.5, ("chi", 1, 120.0))],
    "MET": [_CB] + _chain_atoms("CG", "SD", "CE", bond=[
        (1.52, 114.0), (1.81, 112.7), (1.79, 100.8)]),
    "LYS": [_CB] + _chain_atoms("CG", "CD", "CE", "NZ", bond=[
        _SP3, _SP3, _SP3, (1.49, 111.7)]),
    "ARG": [_CB] + _chain_atoms("CG", "CD", "NE", "CZ", bond=[
        _SP3, _SP3, (1.46, 112.0), (1.33, 124.2)]) + [
        ("NH1", "CD", "NE", "CZ", 1.33, 120.0, ("fix", 0.0)),
        ("NH2", "CD", "NE", "CZ", 1.33, 120.0, ("fix", 180.0))],
    "ASP": [_CB] + _chain_atoms("CG", "OD1", bond=[
        (1.52, 113.0), (1.25, 119.0)]) + [
        ("OD2", "CA", "CB", "CG", 1.25, 119.0, ("chi", 1, 180.0))],
    "ASN": [_CB] + _chain_atoms("CG", "OD1", bond=[
        (1.52, 113.0), (1.23, 121.0)]) + [
        ("ND2", "CA", "CB", "CG", 1.33, 116.0, ("chi", 1, 180.0))],
    "GLU": [_CB] + _chain_atoms("CG", "CD", "OE1", bond=[
        _SP3, (1.52, 113.0), (1.25, 119.0)]) + [
        ("OE2", "CB", "CG", "CD", 1.25, 119.0, ("chi", 2, 180.0))],
    "GLN": [_CB] + _chain_atoms("CG", "CD", "OE1", bond=[
        _SP3, (1.52, 113.0), (1.23, 121.0)]) + [
        ("NE2", "CB", "CG", "CD", 1.33, 116.0, ("chi", 2, 180.0))],
    "PRO": [_CB] + _chain_atoms("CG", "CD", bond=[
        (1.50, 104.5), (1.51, 105.5)]),
    "HIS": [_CB,
            ("CG", "N", "CA", "CB", 1.50, 114.0, ("chi", 0, 0.0)),
            ("ND1", "CA", "CB", "CG", 1.38, 122.0, ("chi", 1, 0.0)),
            ("CD2", "CA", "CB", "CG", 1.36, 131.0, ("chi", 1, 180.0)),
            ("CE1", "CB", "CG", "ND1", 1.32, 109.0, ("fix", 180.0)),
            ("NE2", "CB", "CG", "CD2", 1.37, 107.0, ("fix", 180.0))],
    "PHE": [_CB] + _ring6(),
    "TYR": [_CB] + _ring6([("OH", "CD1", "CE1", "CZ", 1.38, 120.0,
                            ("fix", 180.0))]),
    "TRP": [_CB,
            ("CG", "N", "CA", "CB", 1.50, 114.0, ("chi", 0, 0.0)),
            ("CD1", "CA", "CB", "CG", 1.37, 127.0, ("chi", 1, 0.0)),
            ("CD2", "CA", "CB", "CG", 1.43, 126.6, ("chi", 1, 180.0)),
            ("NE1", "CB", "CG", "CD1", 1.38, 110.0, ("fix", 180.0)),
            ("CE2", "CB", "CG", "CD2", 1.41, 107.0, ("fix", 180.0)),
            ("CE3", "CB", "CG", "CD2", 1.40, 134.0, ("fix", 0.0)),
            ("CZ2", "CG", "CD2", "CE2", 1.40, 122.0, ("fix", 180.0)),
            ("CZ3", "CG", "CD2", "CE3", 1.39, 119.0, ("fix", 180.0)),
            ("CH2", "CD2", "CE2", "CZ2", 1.37, 118.0, ("fix", 0.0))],
}
N_CHI = {res: len({t[1] for *_, t in atoms if t[0] == "chi"})
         for res, atoms in SIDECHAINS.items()}

# Fixed sizes: the seed never changes the amount of work.
CORPUS_LENGTHS = (96, 132, 176, 224, 280, 352, 440)
CODEC_LENGTHS = (300, 340, 380)
ASSEMBLIES = ((1800, 200), (330, 310))
ZN_SITES_PER_COMPLEX = 4
ALTLOC_FRACTION = 0.05
WATERS_PER_RESIDUE = 0.1
JITTER = 0.02


def nerf(a, b, c, bond, angle, torsion):
    """Place d with |cd| = bond, angle(b, c, d) = angle and
    dihedral(a, b, c, d) = torsion (radians); pure Python floats."""
    bcx, bcy, bcz = c[0] - b[0], c[1] - b[1], c[2] - b[2]
    inv = 1.0 / math.sqrt(bcx * bcx + bcy * bcy + bcz * bcz)
    bcx, bcy, bcz = bcx * inv, bcy * inv, bcz * inv
    abx, aby, abz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    nx, ny, nz = aby * bcz - abz * bcy, abz * bcx - abx * bcz, abx * bcy - aby * bcx
    inv = 1.0 / math.sqrt(nx * nx + ny * ny + nz * nz)
    nx, ny, nz = nx * inv, ny * inv, nz * inv
    mx, my, mz = ny * bcz - nz * bcy, nz * bcx - nx * bcz, nx * bcy - ny * bcx
    d0 = -bond * math.cos(angle)
    d1 = bond * math.sin(angle) * math.cos(torsion)
    d2 = bond * math.sin(angle) * math.sin(torsion)
    return (c[0] + d0 * bcx + d1 * mx + d2 * nx,
            c[1] + d0 * bcy + d1 * my + d2 * ny,
            c[2] + d0 * bcz + d1 * mz + d2 * nz)


def _composition(rng, n):
    """n residue types in FREQ's proportions (largest remainder), shuffled:
    the seed changes the order, never the atom count."""
    quota = {t: f * n / 100.0 for t, f in FREQ.items()}
    counts = {t: int(q) for t, q in quota.items()}
    spare = n - sum(counts.values())
    for t in sorted(FREQ, key=lambda t: counts[t] - quota[t])[:spare]:
        counts[t] += 1
    types = [t for t, c in counts.items() for _ in range(c)]
    rng.shuffle(types)
    return types


def _draw_phi_psi(rng):
    u = rng.random()
    if u < 0.45:
        centre = (-63.0, -43.0)   # alpha helix
    elif u < 0.80:
        centre = (-120.0, 130.0)  # beta strand
    elif u < 0.92:
        centre = (-75.0, 145.0)   # polyproline
    else:
        centre = (60.0, 40.0)     # left-handed
    return (math.radians(centre[0] + rng.gauss(0.0, 12.0)),
            math.radians(centre[1] + rng.gauss(0.0, 12.0)))


def _draw_chis(rng, res_type):
    chis = []
    for k in range(N_CHI[res_type]):
        if res_type == "PRO":
            base = 30.0 if k == 0 else -35.0
        else:
            base = rng.choice((-65.0, 180.0, 62.0))
        chis.append(math.radians(base + rng.gauss(0.0, 9.0)))
    return chis


def _sidechain(res_type, atoms, chis):
    """Add side-chain atoms to the {name: xyz} dict of one residue."""
    for name, a, b, c, bond, angle, tors in SIDECHAINS[res_type]:
        t = (chis[tors[1]] + math.radians(tors[2]) if tors[0] == "chi"
             else math.radians(tors[1]))
        atoms[name] = nerf(atoms[a], atoms[b], atoms[c], bond,
                           math.radians(angle), t)


def _clashes(grid, point, cell=4.0, radius=3.6):
    ix, iy, iz = (int(math.floor(v / cell)) for v in point)
    r2 = radius * radius
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                for q in grid.get((ix + dx, iy + dy, iz + dz), ()):
                    if ((q[0] - point[0]) ** 2 + (q[1] - point[1]) ** 2
                            + (q[2] - point[2]) ** 2) < r2:
                        return True
    return False


def _grid_add(grid, point, cell=4.0):
    key = tuple(int(math.floor(v / cell)) for v in point)
    grid.setdefault(key, []).append(point)


def build_chain(rng, n, types=None):
    """Residues as (res_type, {atom: xyz}); backbone torsions are redrawn
    (up to 50 times) until the new CA keeps 3.6 A from every CA but its
    two predecessors."""
    types = types or _composition(rng, n)
    res = [{"N": (0.0, 0.0, 0.0), "CA": (N_CA, 0.0, 0.0)}]
    t = math.radians(ANG_N_CA_C)
    res[0]["C"] = (N_CA - CA_C * math.cos(t), CA_C * math.sin(t), 0.0)
    grid, recent = {}, [res[0]["CA"]]
    psi_prev = _draw_phi_psi(rng)[1]
    for i in range(1, n):
        prev = res[-1]
        for attempt in range(50):
            phi = _draw_phi_psi(rng)[0]
            omega = math.radians(180.0 + rng.gauss(0.0, 3.0))
            n_at = nerf(prev["N"], prev["CA"], prev["C"], C_N,
                        math.radians(ANG_CA_C_N), psi_prev)
            ca = nerf(prev["CA"], prev["C"], n_at, N_CA,
                      math.radians(ANG_C_N_CA), omega)
            if attempt == 49 or not _clashes(grid, ca):
                break
            psi_prev = _draw_phi_psi(rng)[1]
        c_at = nerf(prev["C"], n_at, ca, CA_C, math.radians(ANG_N_CA_C), phi)
        prev["O"] = nerf(prev["N"], prev["CA"], prev["C"], C_O,
                         math.radians(ANG_CA_C_O), psi_prev + math.pi)
        res.append({"N": n_at, "CA": ca, "C": c_at})
        recent.append(ca)
        if len(recent) > 2:
            _grid_add(grid, recent.pop(0))
        psi_prev = _draw_phi_psi(rng)[1]
    last = res[-1]
    last["O"] = nerf(last["N"], last["CA"], last["C"], C_O,
                     math.radians(ANG_CA_C_O), psi_prev + math.pi)
    out = []
    for res_type, atoms in zip(types, res):
        _sidechain(res_type, atoms, _draw_chis(rng, res_type))
        out.append((res_type, atoms))
    return out


def _jittered(rng, xyz):
    return tuple(v + rng.gauss(0.0, JITTER) for v in xyz)


def _plddt_walk(rng, n):
    value, out = rng.uniform(60.0, 95.0), []
    for _ in range(n):
        value = min(98.5, max(25.0, value + rng.gauss(0.0, 4.0)))
        out.append(value)
    return out


def _atom_line(record, serial, name, altloc, res_name, chain_id, seq,
               xyz, occupancy, b_factor, element):
    label = name.ljust(4) if len(name) >= 4 or len(element) == 2 else f" {name:<3s}"
    return (f"{record:<6s}{serial:5d} {label}{altloc}{res_name:>3s} "
            f"{chain_id}{seq:4d}    {xyz[0]:8.3f}{xyz[1]:8.3f}{xyz[2]:8.3f}"
            f"{occupancy:6.2f}{b_factor:6.2f}          {element:>2s}")


def write_pdb(path, struct_id, expdta, chains, hetero=(), resolution=None):
    """chains: (chain_id, first_seq, residues, b_factors, altloc_rows);
    residues as build_chain gives them, altloc_rows maps a residue index
    to {atom: altloc-B position}. hetero: (code, chain_id, seq, xyz)."""
    lines = [f"HEADER    {'SYNTHETIC':<40s}01-JAN-24   {struct_id:>4s}",
             f"EXPDTA    {expdta}"]
    if resolution is not None:
        lines.append(f"REMARK   2 RESOLUTION. {resolution:7.2f} ANGSTROMS.")
    serial = 1
    for chain_id, first_seq, residues, b_factors, altloc_rows in chains:
        for i, (res_type, atoms) in enumerate(residues):
            alt_b = altloc_rows.get(i, {})
            for name, xyz in atoms.items():
                if name in alt_b:
                    for alt, pos in (("A", xyz), ("B", alt_b[name])):
                        lines.append(_atom_line("ATOM", serial, name, alt,
                                                res_type, chain_id,
                                                first_seq + i, pos, 0.5,
                                                b_factors[i], name[0]))
                        serial += 1
                    continue
                lines.append(_atom_line("ATOM", serial, name, " ", res_type,
                                        chain_id, first_seq + i, xyz, 1.0,
                                        b_factors[i], name[0]))
                serial += 1
        lines.append(f"TER   {serial:5d}")
        serial += 1
    for code, chain_id, seq, xyz in hetero:
        element = "ZN" if code == "ZN" else "O"
        name = "ZN" if code == "ZN" else "O"
        lines.append(_atom_line("HETATM", serial, name, " ", code, chain_id,
                                seq, xyz, 1.0, 30.0, element))
        serial += 1
    lines.append("END")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _finish(rng, residues):
    """Jitter every atom; returns (residues, first_seq, b_factors)."""
    jittered = [(t, {name: _jittered(rng, xyz) for name, xyz in atoms.items()})
                for t, atoms in residues]
    return jittered, rng.randint(2, 400), _plddt_walk(rng, len(residues))


def make_singles(rng, out_dir, lengths, prefix):
    for k, n in enumerate(lengths):
        residues, first, bfac = _finish(rng, build_chain(rng, n))
        write_pdb(os.path.join(out_dir, f"{prefix}{k:02d}.pdb"), f"{k:04d}",
                  "THEORETICAL MODEL (PREDICTED)",
                  [("A", first, residues, bfac, {})])


def _translate(residues, shift):
    return [(t, {name: tuple(p + s for p, s in zip(xyz, shift))
                 for name, xyz in atoms.items()}) for t, atoms in residues]


def _coords(residues, names):
    return np.asarray([xyz for _, atoms in residues
                       for name, xyz in atoms.items() if name in names])


def _first_contact(own, placed, u, distance):
    """Largest t at which some point of own + t*u comes within distance
    of some placed point, approaching from t = +inf."""
    best = -np.inf
    for start in range(0, len(own), 512):
        w = own[start:start + 512, None, :] - placed[None, :, :]
        wu = w @ u
        disc = wu * wu - (w * w).sum(-1) + distance * distance
        hit = disc >= 0.0
        if hit.any():
            best = max(best, float((-wu[hit] + np.sqrt(disc[hit])).max()))
    return best


def _pack(rng, placed, residues):
    """Shift residues along a random direction toward the placed chains
    until a CA or CB pair first comes to 4 A."""
    placed_cb = _coords(placed, ("CA", "CB"))
    anchor = placed_cb.mean(axis=0)
    own_cb = _coords(residues, ("CA", "CB"))
    centre = own_cb.mean(axis=0)
    u = np.array([rng.gauss(0.0, 1.0) for _ in range(3)])
    u /= np.linalg.norm(u)
    t = _first_contact(own_cb - centre + anchor, placed_cb, u, 4.0) + 1e-3
    shift = anchor + t * u - centre
    return _translate(residues, tuple(float(round(v, 3)) for v in shift))


def make_assemblies(rng, out_dir, complexes):
    for k, lengths in enumerate(complexes):
        types = [_composition(rng, n) for n in lengths]
        cysteines = [(ci, i) for ci, chain in enumerate(types)
                     for i, t in enumerate(chain) if t == "CYS"]
        sites = set(rng.sample(cysteines, ZN_SITES_PER_COMPLEX))
        chains, placed = [], []
        for ci, n in enumerate(lengths):
            residues = build_chain(rng, n, types[ci])
            if placed:
                residues = _pack(rng, placed, residues)
            placed += residues
            chains.append(residues)
        hetero, records = [], []
        for ci, residues in enumerate(chains):
            chain_id = "ABCDEFGH"[ci]
            residues, first, bfac = _finish(rng, residues)
            altloc = {}
            for i, (res_type, atoms) in enumerate(residues):
                extra = [a for a in atoms if a not in ("N", "CA", "C", "O", "CB")]
                if extra and rng.random() < ALTLOC_FRACTION:
                    altloc[i] = {a: tuple(v + rng.uniform(-0.6, 0.6)
                                          for v in atoms[a]) for a in extra}
                if (ci, i) in sites:
                    sg, cb = atoms["SG"], atoms["CB"]
                    d = [s - c for s, c in zip(sg, cb)]
                    norm = math.sqrt(sum(v * v for v in d))
                    hetero.append(("ZN", chain_id, 900 + len(hetero),
                                   tuple(s + 2.3 * v / norm
                                         for s, v in zip(sg, d))))
            waters = int(WATERS_PER_RESIDUE * len(residues))
            for w in range(waters):
                _, atoms = residues[rng.randrange(len(residues))]
                base = atoms[rng.choice(list(atoms))]
                d = [rng.gauss(0.0, 1.0) for _ in range(3)]
                norm = math.sqrt(sum(v * v for v in d))
                hetero.append(("HOH", chain_id, 2000 + w,
                               tuple(b + 3.0 * v / norm
                                     for b, v in zip(base, d))))
            records.append((chain_id, first, residues, bfac, altloc))
        write_pdb(os.path.join(out_dir, f"complex{k:02d}.pdb"), f"C{k:03d}",
                  "X-RAY DIFFRACTION", records, hetero, resolution=2.1)


def tree_sha256(root):
    """SHA-256 over every file under root: relative path, then bytes."""
    digest = hashlib.sha256()
    for directory, dirs, files in os.walk(root):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def generate(workload, seed, out_dir):
    """Write the workload's inputs for seed into out_dir; returns SHA-256."""
    os.makedirs(out_dir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "corpus":
        make_singles(rng, out_dir, CORPUS_LENGTHS, "af")
    elif workload == "codec":
        make_singles(rng, out_dir, CODEC_LENGTHS, "af")
    elif workload == "assembly":
        make_assemblies(rng, out_dir, ASSEMBLIES)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return tree_sha256(out_dir)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus", "codec", "assembly"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    print(generate(args.workload, args.seed, args.out))


if __name__ == "__main__":
    main()
