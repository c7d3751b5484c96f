"""Checks of a round's outputs against computations made apart from foldkit.

check(workload, inputs, out) returns one Op per (step, input file). An op
fails with a `fault` when it shows one of the two known defects (see
check_encode and check_torsion), which stay in the workloads until a fix
lands, and with an `error` for anything else (which also makes the run
incorrect).
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import oracles as O

K = 16
CUTOFF = 3.5
NU, SIGMA = 0.25, 0.1
CODEC_RMSD_LIMIT = 0.1
# The drift fault has been seen from 0.146 to 0.49 A (180 chains, seeds
# 1-60); a round trip beyond this is some other fault.
CODEC_DRIFT_CEILING = 1.0
# Canonical backbone bond lengths the decoder rebuilds with
# (docs/codec-format.md); decoded PDB coordinates carry 3 decimals, which
# moves a distance by at most sqrt(3) * 0.001 A.
BONDS = {("N", "CA"): 1.458, ("CA", "C"): 1.525, ("C", "O"): 1.231}
PEPTIDE_C_N = 1.329
PDB_ROUNDING = 0.00174
ANGLE_TOL = 1e-9
# A torsion re-measured on 3-decimal PDB coordinates: rounding moves each
# of its four atoms by at most 0.87 mA, about 3.3 mrad at backbone
# geometry (seen: at most 2.0 mrad).
PDB_TORSION_TOL = 0.005
BACKBONE = ["N", "CA", "C", "O"]
F32 = 2.0 ** -24

@dataclass
class Op:
    step: str
    name: str
    fault: str | None = None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.fault is not None or self.error is not None


class CheckFailed(Exception):
    pass


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def f32_close(stored, expected, tol: float = ANGLE_TOL) -> np.ndarray:
    """Per element: stored is an f32 rounding of a value within tol of
    expected."""
    stored = np.asarray(stored, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    return np.abs(stored - expected) <= tol + F32 * (np.abs(expected) + tol)


def _embed(theta):
    return (0.0, 0.0) if theta is None else (math.sin(theta), math.cos(theta))


def expected_scalars(model: O.Model, dim: int) -> np.ndarray:
    rows = []
    for _, residues in model.chains:
        for i, (res, angles) in enumerate(zip(residues, O.chain_angles(residues))):
            row = [0.0] * 23
            row[O.VOCABULARY.index(res.name)] = 1.0
            row += O.positional_encoding(i)
            for theta in angles:
                row += _embed(theta)
            rows.append(row[:dim])
    return np.asarray(rows)


def check_features(model: O.Model, d: str, scheme: str, dim: int) -> None:
    with open(os.path.join(d, "manifest.json")) as fh:
        manifest = json.load(fh)
    ca = [res.atoms["CA"] for _, rs in model.chains for res in rs]
    n = len(ca)
    expect(manifest["scheme"] == scheme and manifest["k"] == K
           and manifest["num_nodes"] == n, f"manifest {manifest}")
    S = O.read_fkt(os.path.join(d, "scalars.fkt"))
    expect(S.shape == (n, dim), f"scalars shape {S.shape}")
    E = expected_scalars(model, dim)
    expect(np.array_equal(S[:, :23], E[:, :23]), "one-hot rows differ "
           "from the residue names")
    expect(f32_close(S[:, 23:39], E[:, 23:39]).all(), "positional encoding")
    bad = ~f32_close(S[:, 39:], E[:, 39:]).all(axis=1)
    expect(not bad.any(), f"angle columns off the oracle in rows "
           f"{np.flatnonzero(bad)[:5].tolist()}")
    X = O.read_fkt(os.path.join(d, "coords.fkt"))
    expect(X.shape == (n, 3) and f32_close(X, ca, 0.0).all(), "CA coordinates")
    # Node vectors: unit vectors to the chain predecessor and successor.
    V = O.read_fkt(os.path.join(d, "node_vectors.fkt"))
    expect(V.shape == (n, 2, 3), f"node_vectors shape {V.shape}")
    want = np.zeros((n, 2, 3))
    at = 0
    for _, residues in model.chains:
        m = len(residues)
        for i in range(m):
            if i > 0:
                want[at + i, 0] = O.unit(O.sub(ca[at + i - 1], ca[at + i]))
            if i < m - 1:
                want[at + i, 1] = O.unit(O.sub(ca[at + i + 1], ca[at + i]))
        at += m
    expect(np.abs(V - want).max() <= 1e-6, "node vectors are not the unit "
           "vectors to the chain neighbours")
    # Edges: n * k lines ordered by target; sampled targets match a
    # brute-force kNN with ties to the lower index.
    with open(os.path.join(d, "edges.tsv")) as fh:
        edges = np.asarray([[int(v) for v in line.split("\t")]
                            for line in fh if line.strip()]).reshape(-1, 2)
    k = min(K, n - 1)
    expect(edges.shape == (n * k, 2)
           and np.array_equal(edges[:, 1], np.repeat(np.arange(n), k)),
           "edge list is not k edges per target in target order")
    for t in sorted(set(range(0, n, max(1, n // 16))) | {n - 1}):
        expect(edges[t * k:(t + 1) * k, 0].tolist() == O.knn_sources(ca, t, k),
               f"kNN sources of node {t} differ from brute force")
    W = O.read_fkt(os.path.join(d, "edge_vectors.fkt"))
    pts = np.asarray(ca)
    diff = pts[edges[:, 1]] - pts[edges[:, 0]]
    unit = diff / np.linalg.norm(diff, axis=1)[:, None]
    expect(W.shape == (n * k, 3) and np.abs(W - unit).max() <= 1e-6,
           "edge vectors are not unit source-to-target directions")


def _rotation() -> np.ndarray:
    axis = np.array([0.36, -0.48, 0.8])
    a, (x, y, z) = 1.1, axis / np.linalg.norm(axis)
    c, s = math.cos(a), math.sin(a)
    return np.array([[c + x * x * (1 - c), x * y * (1 - c) - z * s, x * z * (1 - c) + y * s],
                     [y * x * (1 - c) + z * s, c + y * y * (1 - c), y * z * (1 - c) - x * s],
                     [z * x * (1 - c) - y * s, z * y * (1 - c) + x * s, c + z * z * (1 - c)]])


def check_gnn(d: str, saved: str, params) -> None:
    """Outputs under a fixed rotation: SchNet and the scalar channels stay,
    EGNN coordinates, GCP vectors and the noise prediction rotate."""
    from foldkit import geometry, gnn
    schnet, egnn, gcp, noise = params
    S = O.read_fkt(os.path.join(d, "scalars.fkt")).astype(np.float64)
    X = O.read_fkt(os.path.join(d, "coords.fkt")).astype(np.float64)
    V = O.read_fkt(os.path.join(d, "node_vectors.fkt")).astype(np.float64)
    with open(os.path.join(d, "edges.tsv")) as fh:
        topology = geometry.edges_from_text(fh.read(), len(X))
    out = {key: np.load(os.path.join(saved, f"{key}.npy"))
           for key in ("schnet_s", "egnn_s", "egnn_x", "gcp_s", "gcp_v", "noise")}
    R = _rotation()

    def same(a, b, what):
        scale = 1.0 + float(np.abs(b).max())
        expect(a.shape == b.shape and np.abs(a - b).max() <= 1e-9 * scale,
               f"{what} breaks its rotation symmetry")

    XR, VR = X @ R.T, V @ R.T
    same(gnn.schnet_layer(S, XR, topology, schnet), out["schnet_s"],
         "schnet_layer output")
    s, x = gnn.egnn_layer(S, XR, topology, egnn)
    same(s, out["egnn_s"], "egnn_layer scalars")
    same(x, out["egnn_x"] @ R.T, "egnn_layer coordinates")
    s, v = gnn.gcp_layer(S, VR, XR, topology, gcp)
    same(s, out["gcp_s"], "gcp_layer scalars")
    same(v, out["gcp_v"] @ R.T, "gcp_layer vectors")
    same(gnn.noise_predictor(S, XR, topology, noise), out["noise"] @ R.T,
         "noise_predictor output")


def _backbone(model: O.Model) -> np.ndarray:
    return np.asarray([res.atoms[a] for res in model.residues
                       for a in ("N", "CA", "C", "O")])


def check_encode(model: O.Model, fkc: str, decoded: str) -> str | None:
    """Known fault "codec-drift": the round-trip backbone RMSD is above
    0.1 A, from open-loop drift in codec.encode/to_internal."""
    from foldkit.codec import EncodedProtein, decode, encode
    with open(fkc, "rb") as fh:
        payload = fh.read()
    n = len(model.residues)
    expect(len(payload) == 41 + 13 * n, f"payload {len(payload)} bytes "
           f"for {n} residues")
    again = encode(decode(EncodedProtein.from_bytes(payload))).to_bytes()
    expect(again == payload, "encode(decode(p)) != p")
    rmsd = O.kabsch_rmsd(_backbone(model), _backbone(O.read_pdb(decoded)))
    expect(rmsd <= CODEC_DRIFT_CEILING, f"round-trip backbone RMSD {rmsd:.3f} A "
           f"is beyond the drift fault's {CODEC_DRIFT_CEILING} A")
    return "codec-drift" if rmsd > CODEC_RMSD_LIMIT else None


def check_canonical_bonds(residues) -> None:
    """Backbone bonds of a NeRF-rebuilt chain are the canonical constants
    within PDB rounding."""
    for i, res in enumerate(residues):
        # The first residue's N, CA and C are the stored anchor, not rebuilt.
        pairs = [(res.atoms[a], res.atoms[b], length)
                 for (a, b), length in BONDS.items() if i > 0 or a == "C"]
        if i + 1 < len(residues):
            pairs.append((res.atoms["C"], residues[i + 1].atoms["N"], PEPTIDE_C_N))
        for p, q, length in pairs:
            d = math.dist(p, q)
            expect(abs(d - length) <= PDB_ROUNDING,
                   f"rebuilt bond {d:.4f} A, canonical {length}")


def check_decode(model: O.Model, decoded: str) -> None:
    rebuilt = O.read_pdb(decoded)
    expect([r.name for r in rebuilt.residues] == [r.name for r in model.residues],
           "decoded residue types differ from the input")
    check_canonical_bonds(rebuilt.residues)


def _wrapped_close(stored, expected) -> bool:
    diff = np.mod(np.asarray(stored, dtype=np.float64) - expected + np.pi,
                  2.0 * np.pi) - np.pi
    return bool(np.all(np.abs(diff) <= ANGLE_TOL + F32 * np.pi))


def check_torsion(model: O.Model, d: str) -> str | None:
    """The rebuilt chain carries the noised torsions and canonical bonds.
    Known fault "torsion-drops-atoms": it also loses every side-chain atom,
    numbers residues from 1 and zeroes b-factors, because
    codec.from_internal rebuilds backbone-only residues. Any other
    difference from the input is an error."""
    residues = model.residues
    n = len(residues)
    noise = O.read_fkt(os.path.join(d, "angular_noise.fkt"))
    original = O.read_fkt(os.path.join(d, "original_angles.fkt"))
    expect(noise.shape == (n, 3) and original.shape == (n, 3),
           "torsion target shapes")
    expect(noise[0, 0] == 0 and noise[-1, 1] == 0 and noise[-1, 2] == 0,
           "noise on an undefined terminal torsion")
    want = np.asarray([[0.0 if t is None else t for t in row[2:5]]
                       for row in O.chain_angles(residues)])
    expect(_wrapped_close(original, want), "original_angles differ from the "
           "oracle's phi/psi/omega")
    corrupted = O.read_pdb(os.path.join(d, "corrupted.pdb")).residues
    expect([c.name for c in corrupted] == [r.name for r in residues],
           "corrupted residue types differ from the input")
    noised = np.mod(original.astype(np.float64) + noise + np.pi,
                    2.0 * np.pi) - np.pi
    got = [row[2:5] for row in O.chain_angles(corrupted)]
    for i, row in enumerate(got):
        for j, theta in enumerate(row):
            if theta is not None:
                off = abs(math.remainder(theta - noised[i, j], 2.0 * math.pi))
                expect(off <= PDB_TORSION_TOL, f"residue {i} torsion {j} is "
                       f"{off:.4f} rad off original + noise")
    check_canonical_bonds(corrupted)
    if all(c.seq == r.seq and list(c.atoms) == list(r.atoms)
           and c.b_factor == r.b_factor for c, r in zip(corrupted, residues)):
        return None
    expect(all(c.seq == i + 1 and list(c.atoms) == BACKBONE
               and set(c.b_factor.values()) == {0.0}
               for i, c in enumerate(corrupted)),
           "corrupted residues differ from the input in atoms, numbering or "
           "b-factors, other than by the known fault")
    return "torsion-drops-atoms"


def check_co_denoise(model: O.Model, d: str) -> None:
    residues = model.residues
    n = len(residues)
    positions = O.read_fkt(os.path.join(d, "seq_positions.fkt")).ravel()
    originals = O.read_fkt(os.path.join(d, "seq_original_types.fkt")).ravel()
    expect(len(positions) == math.floor(NU * n), f"{len(positions)} "
           f"corrupted positions, expected floor({NU} * {n})")
    pos = positions.astype(int)
    expect(np.all(np.diff(pos) > 0) and pos.min() >= 0 and pos.max() < n,
           "positions are not distinct residue indices")
    types = [O.VOCABULARY.index(r.name) for r in residues]
    expect(originals.astype(int).tolist() == [types[p] for p in pos],
           "seq_original_types differ from the input")
    corrupted = O.read_pdb(os.path.join(d, "corrupted.pdb")).residues
    expect(len(corrupted) == n, "corrupted residue count")
    chosen = set(pos.tolist())
    for i, (c, r) in enumerate(zip(corrupted, residues)):
        mutated = c.name != r.name and c.name in O.CANONICAL
        expect(mutated if i in chosen else c.name == r.name,
               f"residue {i} type change does not match the positions")
        expect(c.seq == r.seq and list(c.atoms) == list(r.atoms),
               f"residue {i} atoms or numbering changed")
    eps = O.read_fkt(os.path.join(d, "coord_noise.fkt"))
    noisy = np.asarray([xyz for c in corrupted for xyz in c.atoms.values()])
    clean = np.asarray([xyz for r in residues for xyz in r.atoms.values()])
    expect(eps.shape == clean.shape, "coord_noise shape")
    expect(np.abs(noisy - SIGMA * eps - clean).max() <= 0.0005 + 1e-6,
           "noised coordinates minus sigma * eps do not give the input")


def check_labels(model: O.Model, path: str, want: list) -> None:
    with open(path) as fh:
        rows = list(csv.reader(fh))
    expect(rows[0] == ["chain", "seq_index", "label"], "label header")
    keys = [(cid, str(r.seq)) for cid, rs in model.chains for r in rs]
    expect([tuple(r[:2]) for r in rows[1:]] == keys, "label rows do not "
           "follow the residues")
    got = [int(r[2]) for r in rows[1:]]
    wrong = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    expect(not wrong, f"{len(wrong)} labels differ from exact distances, "
           f"first at row {wrong[:1]}")


def check(workload: str, inputs: str, out: str, gnn_params=None) -> list:
    ops = []
    for name in sorted(f for f in os.listdir(inputs) if f.endswith(".pdb")):
        stem = name[:-4]
        model = O.read_pdb(os.path.join(inputs, name))

        def run(step, fn, *args):
            op = Op(step, name)
            try:
                op.fault = fn(*args)
            except Exception as exc:  # any failure is this op's error
                op.error = f"{type(exc).__name__}: {exc}"
            ops.append(op)

        if workload == "corpus":
            features = os.path.join(out, "features", stem)
            run("featurise", check_features, model, features, "ca_sc", 57)
            run("gnn", check_gnn, features,
                os.path.join(out, "gnn", stem), gnn_params)
        elif workload == "codec":
            decoded = os.path.join(out, "decoded", f"{stem}.pdb")
            run("encode", check_encode, model,
                os.path.join(out, "fkc", f"{stem}.fkc"), decoded)
            run("decode", check_decode, model, decoded)
            run("torsion_gauss", check_torsion, model,
                os.path.join(out, "torsion", stem))
            run("co_denoise", check_co_denoise, model,
                os.path.join(out, "co", stem))
        else:
            run("featurise", check_features, model,
                os.path.join(out, "features", stem), "ca_bb", 49)
            run("interface", check_labels, model,
                os.path.join(out, "interface", f"{stem}.csv"),
                O.interface_labels(model, CUTOFF))
            run("metal", check_labels, model,
                os.path.join(out, "metal", f"{stem}.csv"),
                O.metal_labels(model, {"ZN"}, CUTOFF))
    return ops
