"""Tests of the benchmark's own oracles and generator on hand-worked cases.

    python3 -m pytest bench/test_oracles.py -q
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import oracles as O  # noqa: E402


def test_dihedral_hand_cases():
    p1, p2, p3 = (1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 1.0, 0.0)
    assert O.dihedral(p1, p2, p3, (1.0, 1.0, 0.0)) == pytest.approx(0.0)
    assert abs(O.dihedral(p1, p2, p3, (-1.0, 1.0, 0.0))) == pytest.approx(math.pi)
    # Rotating the front bond +x by theta about +y (the p2 -> p3 axis)
    # gives (cos theta, 0, -sin theta): torsion theta.
    assert O.dihedral(p1, p2, p3, (0.0, 1.0, 1.0)) == pytest.approx(-math.pi / 2)
    for theta in (-2.5, -1.0, 0.3, 1.2, 3.0):
        p4 = (math.cos(theta), 1.0, -math.sin(theta))
        assert O.dihedral(p1, p2, p3, p4) == pytest.approx(theta, abs=1e-12)


def test_bond_angle_hand_cases():
    o = (0.0, 0.0, 0.0)
    assert O.bond_angle((1.0, 0.0, 0.0), o, (0.0, 2.0, 0.0)) == pytest.approx(math.pi / 2)
    assert O.bond_angle((1.0, 0.0, 0.0), o, (-3.0, 0.0, 0.0)) == pytest.approx(math.pi)
    assert O.bond_angle((1.0, 0.0, 0.0), o, (1.0, 1.0, 0.0)) == pytest.approx(math.pi / 4)


def test_nerf_places_requested_internal_coordinates():
    a, b, c = (0.0, 1.0, 0.3), (0.2, 0.0, 0.0), (1.5, 0.1, 0.0)
    d = gen.nerf(a, b, c, 1.33, 2.03, -1.1)
    assert math.dist(c, d) == pytest.approx(1.33, abs=1e-12)
    assert O.bond_angle(b, c, d) == pytest.approx(2.03, abs=1e-12)
    assert O.dihedral(a, b, c, d) == pytest.approx(-1.1, abs=1e-12)


def test_milli_is_exact():
    assert O.milli("  12.345") == 12345
    assert O.milli("  -0.012") == -12
    assert O.milli(" -12.300") == -12300
    assert O.milli("   0.000") == 0
    with pytest.raises(ValueError):
        O.milli("1.23")


def test_knn_ties_go_to_the_lower_index():
    line = [(float(x), 0.0, 0.0) for x in range(5)]
    assert O.knn_sources(line, 2, 2) == [1, 3]
    assert O.knn_sources(line, 0, 3) == [1, 2, 3]
    assert O.knn_sources(line, 4, 1) == [3]


def test_cutoff_is_inclusive_in_exact_integers():
    atom = np.array([[0, 0, 0]])
    assert O.within_cutoff(atom, np.array([[3500, 0, 0]]), 3.5)[0]
    assert not O.within_cutoff(atom, np.array([[3501, 0, 0]]), 3.5)[0]
    assert O.within_cutoff(atom, np.array([[2000, 2000, 2000]]), 3.5)[0]
    assert not O.within_cutoff(atom, np.array([[2100, 2100, 2100]]), 3.5)[0]
    assert not O.within_cutoff(atom, np.empty((0, 3)), 3.5)[0]


PDB = """\
ATOM      1  N   GLY A  10       0.000   0.000   0.000  1.00 50.00           N
ATOM      2  CA AGLY A  10       1.000   0.000   0.000  0.50 50.00           C
ATOM      3  CA BGLY A  10       9.000   0.000   0.000  0.50 50.00           C
ATOM      4  CA  GLY A  10       8.000   0.000   0.000  1.00 50.00           C
ATOM      5  N   XYZ A   9       0.000   5.000   0.000  1.00 40.00           N
ATOM      6  N   ALA B   1       4.500   0.000   0.000  1.00 60.00           N
HETATM    7 ZN    ZN Z 900       0.000   3.500   0.000  1.00 30.00          ZN
HETATM    8  O   HOH A2000       1.000   1.000   1.000  1.00 30.00           O
END
"""


def test_read_pdb_semantics_and_labels(tmp_path):
    path = tmp_path / "t.pdb"
    path.write_text(PDB)
    model = O.read_pdb(str(path))
    (a_id, a), (b_id, b) = model.chains
    assert (a_id, b_id) == ("A", "B")
    assert [r.seq for r in a] == [9, 10]           # ordered by number
    assert a[0].name == "UNK"                        # non-canonical
    assert a[1].atoms["CA"] == (1.0, 0.0, 0.0)       # altloc A, duplicate dropped
    assert model.hetero == [("ZN", (0, 3500, 0))]    # water dropped
    # Chain A's CA sits 3.5 A from chain B's N: both residues touch.
    assert O.interface_labels(model, 3.5) == [0, 1, 1]
    assert O.interface_labels(model, 3.499) == [0, 0, 0]
    assert O.metal_labels(model, {"ZN"}, 3.5) == [1, 1, 0]


def test_kabsch_rmsd_proper_rotations_only():
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 2, 0], [0, 0, 3.0]])
    c, s = math.cos(0.7), math.sin(0.7)
    rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
    assert O.kabsch_rmsd(pts, pts @ rot.T + [5, -2, 1]) == pytest.approx(0, abs=1e-12)
    mirror = pts * [1, 1, -1]
    assert O.kabsch_rmsd(pts, mirror) > 0.5
    shifted = pts.copy()
    shifted[0] += [0, 0, 0.4]
    assert 0 < O.kabsch_rmsd(pts, shifted) <= 0.2


def test_positional_encoding_hand_values():
    assert O.positional_encoding(0) == [0.0, 1.0] * 8
    pe = O.positional_encoding(3)
    assert pe[0] == pytest.approx(math.sin(3.0))
    assert pe[3] == pytest.approx(math.cos(3.0 / 10000 ** (2 / 16)))


def test_chain_angles_recover_built_torsions():
    chain = gen.build_chain(gen.random.Random(5), 6, ["ALA", "ILE", "ARG", "GLY", "PHE", "SER"])
    residues = [O.Residue(t, i + 1, "", atoms) for i, (t, atoms) in enumerate(chain)]
    rows = O.chain_angles(residues)
    assert rows[0][2] is None and rows[-1][3] is None and rows[-1][4] is None
    assert rows[0][0] is None and rows[-3][1] is not None and rows[-2][1] is None
    for row in rows[:-1]:
        assert abs(abs(row[4]) - math.pi) < math.radians(15)   # trans omega
    assert [sum(v is not None for v in row[5:]) for row in rows] == [0, 2, 4, 0, 2, 1]


def test_chi_quadruples_follow_the_chi_atoms():
    assert O.CHI_QUADRUPLES["ILE"] == [("N", "CA", "CB", "CG1"), ("CA", "CB", "CG1", "CD1")]
    assert O.CHI_QUADRUPLES["ARG"][3] == ("CG", "CD", "NE", "CZ")
    assert O.CHI_QUADRUPLES["GLY"] == [] and O.CHI_QUADRUPLES["ALA"] == []


def test_read_fkt_hand_payload(tmp_path):
    path = tmp_path / "t.fkt"
    path.write_bytes(b"FKT1\x02" + (2).to_bytes(4, "little") + (1).to_bytes(4, "little")
                     + np.array([1.5, -2.0], dtype="<f4").tobytes())
    assert O.read_fkt(str(path)).tolist() == [[1.5], [-2.0]]


def test_generator_is_seeded_and_has_the_stated_make_up(tmp_path):
    one = gen.generate("assembly", 3, str(tmp_path / "a"))
    assert gen.generate("assembly", 3, str(tmp_path / "b")) == one
    assert gen.generate("assembly", 4, str(tmp_path / "c")) != one
    text = (tmp_path / "a" / "complex00.pdb").read_text()
    records = [line for line in text.splitlines() if line.startswith(("ATOM", "HETATM"))]
    assert any(line[16] == "B" for line in records)
    assert any(line[17:20] == "HOH" for line in records)
    assert sum(line[17:20] == " ZN" for line in records) == gen.ZN_SITES_PER_COMPLEX
    model = O.read_pdb(str(tmp_path / "a" / "complex00.pdb"))
    assert len(model.chains) == len(gen.ASSEMBLIES[0])
    assert all(residues[0].seq > 1 for _, residues in model.chains)
    assert sum(O.interface_labels(model, 3.5)) > 0
    assert sum(O.metal_labels(model, {"ZN"}, 3.5)) >= gen.ZN_SITES_PER_COMPLEX
