"""Acceptance suite: one test per release criterion.

Each criterion prints a [PASS]/[FAIL] line (visible with `pytest -s`) and
enforces both its numeric tolerance and its runtime budget. Run with:

    pytest tests/test_acceptance.py -v -s
"""

import contextlib
import hashlib
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from foldkit import gnn
from foldkit.codec import (EncodedProtein, decode, encode, from_internal,
                           to_internal)
from foldkit.errors import FoldkitError
from foldkit.featurise import FeatureScheme, build_graph, scalar_features
from foldkit.geometry import dihedral, kabsch, knn_graph, sidechain_torsions, virtual_angles
from foldkit.pdb import parse_pdb, write_pdb
from foldkit.rng import make_rng
from foldkit.synth import make_internal, random_chain, single_chain_structure
from foldkit.tasks import (corrupt_coords_gaussian, corrupt_sequence_mutate,
                           corrupt_torsions, binding_site_labels,
                           interface_labels)

from helpers import (angle_close, bond_angle_oracle, dihedral_oracle,
                     knn_oracle, proximity_oracle, random_reflection,
                     random_rotation, transform_structure)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "pdb")


@contextlib.contextmanager
def criterion(number, description, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"\n[PASS] criterion {number}: {description} "
          f"({elapsed:.2f}s, limit {limit_seconds}s)")
    assert elapsed < limit_seconds, (
        f"criterion {number} took {elapsed:.2f}s, limit {limit_seconds}s")


def backbone(chain):
    return np.asarray([res.atom(n).position for res in chain.residues
                       for n in ("N", "CA", "C", "O")])


def test_criterion_1_codec_size():
    with criterion(1, "codec size 41 + 13n bytes for n in {3,10,100,1000}", 1.0):
        for n in (3, 10, 100, 1000):
            chain = random_chain(n, make_rng(9000 + n))
            assert len(encode(chain).to_bytes()) == 41 + 13 * n


def test_criterion_2_codec_fidelity():
    with criterion(2, "decode(encode) backbone RMSD <= 0.01 A on 20 chains", 5.0):
        rng = make_rng(9100)
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(50, 201))
            chain = random_chain(n, rng)
            rebuilt = decode(EncodedProtein.from_bytes(encode(chain).to_bytes()))
            rmsd = kabsch(backbone(chain), backbone(rebuilt)).rmsd
            worst = max(worst, rmsd)
            assert rmsd <= 0.01
        print(f"  worst RMSD {worst:.5f} A", end="")


def test_criterion_3_nerf_inverse_property():
    with criterion(3, "from_internal/to_internal inverse within 1e-9 rad, "
                      "100 chains", 5.0):
        rng = make_rng(9200)
        for _ in range(100):
            n = int(rng.integers(4, 60))
            torsions = rng.uniform(-np.pi, np.pi, size=(3, n))
            ic = make_internal(*torsions)
            measured = to_internal(from_internal(ic))
            for name in ("torsions", "angles"):
                a = getattr(ic, name)
                b = getattr(measured, name)
                assert np.max(np.abs(a - b)) < 1e-9


def test_criterion_4_geometry_oracles():
    with criterion(4, "dihedral/kappa/alpha/chi vs brute force <= 1e-12; "
                      "knn exact vs O(n^2) oracle", 10.0):
        rng = make_rng(9300)
        for _ in range(1000):  # dihedral
            pts = rng.normal(size=(4, 3)) * 3.0
            assert angle_close(dihedral(*pts), dihedral_oracle(*pts), 1e-12)
        count_k = count_a = 0  # kappa and alpha over random traces
        while count_k < 1000 or count_a < 1000:
            trace = rng.normal(size=(24, 3)) * 4.0
            virt = virtual_angles(trace)
            for i in range(1, 23):
                expected = bond_angle_oracle(trace[i - 1], trace[i],
                                             trace[i + 1])
                assert abs(virt.kappa[i] - expected) < 1e-12
                count_k += 1
            for i in range(1, 22):
                expected = dihedral_oracle(trace[i - 1], trace[i],
                                           trace[i + 1], trace[i + 2])
                assert angle_close(virt.alpha[i], expected, 1e-12)
                count_a += 1
        from test_geometry import _lysine
        from foldkit.residues import CHI_ATOMS
        count_chi = 0
        while count_chi < 1000:
            res = _lysine(rng.uniform(-np.pi, np.pi, 4))
            chi = sidechain_torsions(res).chi
            for k, names in enumerate(CHI_ATOMS["LYS"]):
                quad = [res.atom(n).position for n in names]
                assert angle_close(chi[k], dihedral_oracle(*quad), 1e-12)
                count_chi += 1
        for trial in range(200):  # knn vs oracle
            n = int(rng.integers(2, 50))
            pts = rng.normal(size=(n, 3)) * 6.0
            for k in (1, 4, 16):
                assert ([tuple(e) for e in knn_graph(pts, k).edges]
                        == knn_oracle(pts, k))


def test_criterion_5_symmetry_suite():
    with criterion(5, "SchNet/EGNN/noise-predictor/GCP-frame symmetry, "
                      "50 motions x seeds, <= 1e-9 (frames 1e-10)", 30.0):
        base_graph = build_graph(
            single_chain_structure(random_chain(24, make_rng(9400))),
            FeatureScheme.CA_IDENT, k=6)
        topo = base_graph.topology
        X = base_graph.coords
        Xq = np.round(X * 1024) / 1024  # exactly representable
        rng = make_rng(9401)
        d = 8
        for trial in range(50):
            S = rng.normal(size=(topo.num_nodes, d))
            R = random_rotation(rng)
            t = rng.normal(size=3) * 10.0
            M = random_reflection(rng)

            ps = gnn.schnet_params(d, seed=trial)
            a = gnn.schnet_layer(S, X, topo, ps)
            b = gnn.schnet_layer(S, X @ R.T + t, topo, ps)
            assert np.max(np.abs(a - b)) / np.max(np.abs(a)) < 1e-9

            pe = gnn.egnn_params(d, seed=trial)
            S0, X0 = gnn.egnn_layer(S, X, topo, pe)
            S1, X1 = gnn.egnn_layer(S, X @ R.T + t, topo, pe)
            assert np.max(np.abs(S1 - S0)) / np.max(np.abs(S0)) < 1e-9
            ref = X0 @ R.T + t
            assert np.max(np.abs(X1 - ref)) / np.max(np.abs(ref)) < 1e-9

            pn = gnn.noise_predictor_params(d, seed=trial)
            t_exact = np.array([2.0, -1.5, 0.25]) * (trial + 1)
            e0 = gnn.noise_predictor(S, Xq, topo, pn)
            e1 = gnn.noise_predictor(S, Xq + t_exact, topo, pn)
            assert np.array_equal(e0, e1)  # translation: exact
            e2 = gnn.noise_predictor(S, X, topo, pn)
            e3 = gnn.noise_predictor(S, X @ R.T, topo, pn)
            assert np.max(np.abs(e3 - e2 @ R.T)) / np.max(np.abs(e2)) < 1e-9

            fr = gnn.gcp_frames(X, topo)
            frR = gnn.gcp_frames(X @ R.T, topo)
            assert np.max(np.abs(frR.a - fr.a @ R.T)) < 1e-10
            assert np.max(np.abs(frR.b - fr.b @ R.T)) < 1e-10
            assert np.max(np.abs(frR.c - fr.c @ R.T)) < 1e-10
            frM = gnn.gcp_frames(X @ M.T, topo)
            assert np.max(np.abs(frM.a - fr.a @ M.T)) < 1e-10
            assert np.max(np.abs(frM.b + fr.b @ M.T)) < 1e-10
            assert np.max(np.abs(frM.c - fr.c @ M.T)) < 1e-10


def test_criterion_6_corruption_statistics():
    with criterion(6, "nu=0.25 corrupts floor(0.25n); sigma=0.1 std within "
                      "5%; torsional keeps bond angles to 1e-6", 10.0):
        rng = make_rng(9500)
        for n in (8, 100, 1003):
            res = rng.integers(0, 20, size=n)
            out = corrupt_sequence_mutate(res, 0.25, make_rng(9501))
            assert out.corrupted_mask.sum() == int(np.floor(0.25 * n))
        X = np.zeros((100_000, 3))
        noised = np.asarray(
            corrupt_coords_gaussian(X, 0.1, make_rng(9502)).corrupted)
        stds = noised.std(axis=0)
        assert np.all(np.abs(stds - 0.1) / 0.1 < 0.05)
        chain = random_chain(40, make_rng(9503))
        out = corrupt_torsions(chain, 0.1, make_rng(9504))
        ic0, ic1 = to_internal(chain), to_internal(out.corrupted)
        assert np.max(np.abs(ic0.angles - ic1.angles)) < 1e-6


def test_criterion_7_featurisation():
    with criterion(7, "scheme dims 23/39/43/49/57; S invariant, V "
                      "equivariant over 50 motions <= 1e-9", 10.0):
        s = single_chain_structure(random_chain(20, make_rng(9600)))
        dims = (23, 39, 43, 49, 57)
        for scheme, expected in zip(FeatureScheme, dims):
            assert scheme.dim == expected
            assert scalar_features(s, scheme).shape == (20, expected)
        g = build_graph(s, FeatureScheme.CA_SC, k=16)
        rng = make_rng(9601)
        for _ in range(50):
            R = random_rotation(rng)
            t = rng.normal(size=3) * 8.0
            g2 = build_graph(transform_structure(s, R, t),
                             FeatureScheme.CA_SC, k=16)
            assert np.max(np.abs(g2.scalars - g.scalars)) < 1e-9
            rotated_nodes = np.einsum("nvk,jk->nvj", g.node_vectors, R)
            assert np.max(np.abs(g2.node_vectors - rotated_nodes)) < 1e-9
            assert np.max(np.abs(g2.edge_vectors - g.edge_vectors @ R.T)) < 1e-9


def test_criterion_8_label_oracles():
    with criterion(8, "metal/interface labels at 3.5 A match brute-force "
                      "oracles on 50 complexes", 10.0):
        import dataclasses
        rng = make_rng(9700)
        for trial in range(50):
            chain_a = random_chain(12, rng, chain_id="A")
            offset = np.array([5.0 + 3.0 * rng.random(), 1.0, 0.0])
            moved = tuple(
                dataclasses.replace(res, atoms=tuple(
                    dataclasses.replace(a, position=a.position + offset)
                    for a in res.atoms))
                for res in random_chain(12, rng, chain_id="B").residues)
            complex_s = dataclasses.replace(
                single_chain_structure(chain_a), chains=(
                    chain_a, dataclasses.replace(chain_a, id="B",
                                                 residues=moved)))
            labels = interface_labels(complex_s, 3.5).labels
            chains = {c.id: c for c in complex_s.chains}
            expected = []
            for chain, res in complex_s.iter_residues():
                other = chains["B" if chain.id == "A" else "A"]
                other_atoms = [a.position for r in other.residues
                               for a in r.atoms]
                expected.extend(proximity_oracle(
                    [[a.position for a in res.atoms]], other_atoms, 3.5))
            assert labels.tolist() == expected

            from foldkit.structure import Atom, Chain, Residue
            zn_pos = rng.normal(size=3) * 7.0
            zn = Atom("ZN", "ZN", zn_pos, serial=9999)
            s = single_chain_structure(chain_a, ligands=(
                Chain("Z", (Residue("ZN", 1, None, (zn,)),)),))
            got = binding_site_labels(s, {"ZN"}, 3.5).labels
            expected = proximity_oracle(
                [[a.position for a in r.atoms] for r in chain_a.residues],
                [zn_pos], 3.5)
            assert got.tolist() == expected


def _sha_tree(root):
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _pipeline(root, jobs):
    """filter -> encode -> decode -> featurise -> corrupt -> label."""
    def run(*args):
        proc = subprocess.run([sys.executable, "-m", "foldkit.cli", *args],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc

    os.makedirs(root, exist_ok=True)
    spec = os.path.join(root, "spec.cfg")
    with open(spec, "w") as fh:
        fh.write("min_length=20\n")
    run("filter", FIXTURES, os.path.join(root, "manifest.txt"),
        "--spec", spec)
    run("encode", FIXTURES, os.path.join(root, "fkc"), "--jobs", jobs)
    run("decode", os.path.join(root, "fkc"), os.path.join(root, "pdb"),
        "--jobs", jobs)
    run("featurise", FIXTURES, os.path.join(root, "feat"),
        "--scheme", "ca_bb", "--jobs", jobs)
    run("corrupt", FIXTURES, os.path.join(root, "corr"),
        "--kind", "co_denoise", "--seed", "11", "--jobs", jobs)
    run("label", os.path.join(FIXTURES, "helix_zn.pdb"),
        os.path.join(root, "metal.csv"), "--mode", "metal",
        "--ligands", "ZN")
    run("label", os.path.join(FIXTURES, "dimer.pdb"),
        os.path.join(root, "iface.csv"), "--mode", "interface")


def test_criterion_9_cli_end_to_end(tmp_path):
    with criterion(9, "CLI pipeline exit 0, SHA-stable across runs and "
                      "--jobs 1 vs 8", 30.0):
        roots = [tmp_path / name for name in ("run1", "run2", "run8")]
        _pipeline(str(roots[0]), "1")
        _pipeline(str(roots[1]), "1")
        _pipeline(str(roots[2]), "8")
        first = _sha_tree(roots[0])
        assert _sha_tree(roots[1]) == first
        assert _sha_tree(roots[2]) == first


def _fuzz_pdb_inputs(rng, count):
    with open(os.path.join(FIXTURES, "chain_b.pdb")) as fh:
        base = fh.read()
    lines = base.splitlines()
    for i in range(count):
        mode = i % 4
        if mode == 0:  # random printable garbage
            n = int(rng.integers(0, 200))
            yield bytes(rng.integers(32, 127, size=n)).decode("ascii")
        elif mode == 1:  # random bytes as latin-1
            n = int(rng.integers(0, 200))
            yield bytes(rng.integers(0, 256, size=n)).decode("latin-1")
        elif mode == 2:  # mutated real records
            k = int(rng.integers(1, 12))
            rows = [lines[int(rng.integers(0, len(lines)))] for _ in range(k)]
            row = bytearray("\n".join(rows).encode("latin-1"))
            for _ in range(int(rng.integers(1, 8))):
                if row:
                    row[int(rng.integers(0, len(row)))] = int(rng.integers(0, 256))
            yield row.decode("latin-1")
        else:  # truncations
            cut = int(rng.integers(0, len(base)))
            yield base[:cut]


def _fuzz_codec_payloads(rng, count):
    chain = random_chain(8, make_rng(9800))
    valid = encode(chain).to_bytes()
    for i in range(count):
        mode = i % 3
        if mode == 0:
            n = int(rng.integers(0, 200))
            yield bytes(rng.integers(0, 256, size=n))
        elif mode == 1:
            cut = int(rng.integers(0, len(valid)))
            yield valid[:cut]
        else:
            data = bytearray(valid)
            for _ in range(int(rng.integers(1, 6))):
                data[int(rng.integers(0, len(data)))] = int(rng.integers(0, 256))
            yield bytes(data)


def test_criterion_10_robustness():
    with criterion(10, "10^4 fuzzed PDB inputs + 10^4 fuzzed FKC1 payloads "
                       "yield typed errors only", 60.0):
        rng = make_rng(9900)
        parsed = failed = 0
        for text in _fuzz_pdb_inputs(rng, 10_000):
            try:
                parse_pdb(text)
                parsed += 1
            except FoldkitError:
                failed += 1
        assert parsed + failed == 10_000
        decoded = rejected = 0
        for payload in _fuzz_codec_payloads(rng, 10_000):
            try:
                decode(EncodedProtein.from_bytes(payload))
                decoded += 1
            except FoldkitError:
                rejected += 1
        assert decoded + rejected == 10_000
        print(f"  pdb ok/err {parsed}/{failed}, "
              f"codec ok/err {decoded}/{rejected}", end="")
