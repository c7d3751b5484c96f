import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldkit.errors import (DegenerateConfiguration, DegenerateGeometry,
                            TooFewNodes)
from foldkit.geometry import (backbone_dihedrals, bond_angle, bond_angles,
                              dihedral, dihedrals, kabsch, knn_graph,
                              near_masks, sidechain_torsions, superpose,
                              virtual_angles, wrap_angle)
from foldkit.residues import CHI_ATOMS
from foldkit.codec import nerf_place
from foldkit.rng import make_rng
from foldkit.structure import Atom, Residue
from foldkit.synth import random_chain

from helpers import (angle_close, bond_angle_oracle, dihedral_oracle,
                     kabsch_oracle, knn_graph_oracle, knn_oracle,
                     proximity_oracle, random_reflection, random_rotation,
                     with_atom, within_cutoff_oracle)


class TestDihedral:
    def test_planar_cis_is_zero(self):
        assert dihedral((1, 0, 0), (0, 0, 0), (0, 1, 0), (1, 1, 0)) == 0.0

    def test_planar_trans_is_minus_pi(self):
        value = dihedral((1, 0, 0), (0, 0, 0), (0, 1, 0), (-1, 1, 0))
        assert value == pytest.approx(-np.pi, abs=1e-15)

    def test_matches_projection_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            pts = rng.normal(size=(4, 3)) * 3.0
            expected = dihedral_oracle(*[tuple(p) for p in pts])
            assert angle_close(dihedral(*pts), expected, 1e-12)

    def test_collinear_raises(self):
        with pytest.raises(DegenerateGeometry):
            dihedral((0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 1, 0))

    def test_range_half_open(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            pts = rng.normal(size=(4, 3))
            value = dihedral(*pts)
            assert -np.pi <= value < np.pi

    def test_rigid_motion_invariance_and_reflection_flip(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            pts = rng.normal(size=(4, 3)) * 2.0
            base = dihedral(*pts)
            R = random_rotation(rng)
            t = rng.normal(size=3) * 10
            moved = dihedral(*(pts @ R.T + t))
            assert angle_close(moved, base, 1e-10)
            M = random_reflection(rng)
            mirrored = dihedral(*(pts @ M.T))
            assert angle_close(mirrored, -base, 1e-10)


def _loop_dihedral(p1, p2, p3, p4):
    """The per-quadruple formula the batched kernel replaced: its reference."""
    b2 = p3 - p2
    n1, n2 = np.cross(p2 - p1, b2), np.cross(b2, p4 - p3)
    y = np.dot(np.cross(n1, n2), b2 / np.linalg.norm(b2))
    return wrap_angle(np.arctan2(y, np.dot(n1, n2)))


def _loop_bond_angle(p1, p2, p3):
    u, v = p1 - p2, p3 - p2
    return float(np.arctan2(np.linalg.norm(np.cross(u, v)), np.dot(u, v)))


class TestBatchedKernels:
    def test_rows_equal_loop_reference_bitwise(self):
        # bit-equal, not merely close: feature tensors and FKC1 payloads
        # are compared byte for byte across versions
        pts = np.random.default_rng(12).normal(size=(2000, 4, 3)) * 3.0
        torsions, valid = dihedrals(*pts.transpose(1, 0, 2))
        assert valid.all()
        assert torsions.tolist() == [_loop_dihedral(*p) for p in pts]
        angles, valid = bond_angles(*pts[:, :3].transpose(1, 0, 2))
        assert valid.all()
        assert angles.tolist() == [_loop_bond_angle(*p[:3]) for p in pts]
        assert [dihedral(*p) for p in pts[:50]] == torsions[:50].tolist()

    def test_degenerate_rows_masked(self):
        good = np.random.default_rng(13).normal(size=(4, 3))
        collinear = np.array([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 1, 0)], float)
        torsions, valid = dihedrals(*np.stack([good, collinear, good], axis=1))
        assert valid.tolist() == [True, False, True]
        assert np.isnan(torsions[1]) and torsions[0] == torsions[2] == dihedral(*good)
        angles, valid = bond_angles(good[:3], good[[1, 1, 1]], good[[2, 1, 2]])
        assert valid.tolist() == [True, False, True]
        assert np.isnan(angles[1])

    def test_empty_rows(self):
        torsions, valid = dihedrals(*np.zeros((4, 0, 3)))
        assert torsions.shape == valid.shape == (0,)

    def test_bond_angle_coincident_raises(self):
        with pytest.raises(DegenerateGeometry):
            bond_angle((1, 0, 0), (0, 0, 0), (0, 0, 0))


class TestBackboneDihedrals:
    def test_collinear_backbone_triple_raises(self):
        chain = random_chain(6, make_rng(21))
        n = chain.residues[3].atom("N").position
        ca = chain.residues[3].atom("CA").position
        chain = with_atom(chain, 3, "C", ca + 1.5 * (ca - n) / np.linalg.norm(ca - n))
        with pytest.raises(DegenerateGeometry):
            backbone_dihedrals(chain)


class TestWrap:
    @given(st.floats(-50.0, 50.0))
    def test_wrap_range(self, theta):
        w = wrap_angle(theta)
        assert -np.pi <= w < np.pi

    def test_pi_maps_to_minus_pi(self):
        assert wrap_angle(np.pi) == -np.pi


class TestVirtualAngles:
    def test_collinear_trace_kappa_pi(self):
        virt = virtual_angles([(0, 0, 0), (1, 0, 0), (2, 0, 0)])
        assert virt.kappa[0] is None and virt.kappa[2] is None
        assert virt.kappa[1] == pytest.approx(np.pi)

    def test_square_trace(self):
        virt = virtual_angles([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])
        assert virt.kappa[1] == pytest.approx(np.pi / 2)
        assert virt.kappa[2] == pytest.approx(np.pi / 2)
        assert virt.alpha[1] == pytest.approx(0.0, abs=1e-15)
        assert virt.alpha[0] is None
        assert virt.alpha[2] is None and virt.alpha[3] is None

    def test_matches_bruteforce_oracles(self):
        rng = np.random.default_rng(17)
        trace = rng.normal(size=(20, 3)) * 4.0
        virt = virtual_angles(trace)
        for i in range(1, 19):
            expected = bond_angle_oracle(trace[i - 1], trace[i], trace[i + 1])
            assert abs(virt.kappa[i] - expected) < 1e-12
        for i in range(1, 18):
            expected = dihedral_oracle(trace[i - 1], trace[i],
                                       trace[i + 1], trace[i + 2])
            assert angle_close(virt.alpha[i], expected, 1e-12)

    def test_collinear_window_mid_trace(self):
        trace = np.random.default_rng(19).normal(size=(8, 3)) * 4.0
        trace[4] = 0.5 * (trace[3] + trace[5])  # CA 3, 4, 5 collinear
        virt = virtual_angles(trace)
        # both windows holding the collinear triple are undefined
        assert virt.alpha[3] is None and virt.alpha[4] is None
        for i in (1, 2, 5):
            expected = dihedral_oracle(*trace[i - 1:i + 3])
            assert angle_close(virt.alpha[i], expected, 1e-12)
        assert virt.kappa[4] == pytest.approx(np.pi)

    def test_coincident_cas_raise(self):
        with pytest.raises(DegenerateGeometry):
            virtual_angles([(0, 0, 0), (0, 0, 0), (1, 0, 0)])

    def test_too_few_points(self):
        with pytest.raises(TooFewNodes):
            virtual_angles([(0, 0, 0)])


def _lysine(chis, drop=()):
    """LYS sidechain grown by NeRF at the requested chi angles."""
    n = np.array([0.0, 0.0, 0.0])
    ca = np.array([1.458, 0.0, 0.0])
    c = ca + 1.525 * np.array([-np.cos(1.94), np.sin(1.94), 0.0])
    atoms = {"N": n, "CA": ca, "C": c}
    atoms["CB"] = nerf_place(c, n, ca, 1.53, 1.92, 2.14)
    prev = ("N", "CA", "CB")
    for name, chi in zip(("CG", "CD", "CE", "NZ"), chis):
        atoms[name] = nerf_place(atoms[prev[0]], atoms[prev[1]],
                                 atoms[prev[2]], 1.52, 1.92, chi)
        prev = (prev[1], prev[2], name)
    return Residue("LYS", 1, None, tuple(
        Atom(k, k[0], v, serial=i + 1) for i, (k, v) in enumerate(atoms.items())
        if k not in drop))


class TestSidechainTorsions:
    def test_glycine_has_no_chi(self):
        res = Residue("GLY", 1, None, ())
        assert sidechain_torsions(res).chi == (None,) * 4

    def test_lysine_recovers_built_angles(self):
        target = (np.pi / 3,) * 4
        chi = sidechain_torsions(_lysine(target)).chi
        for k in range(4):
            assert angle_close(chi[k], np.pi / 3, 1e-9)

    def test_missing_nz_undefines_chi4_only(self):
        chi = sidechain_torsions(_lysine((0.5, 0.5, 0.5, 0.5), drop=("NZ",))).chi
        assert chi[3] is None
        assert all(chi[k] is not None for k in range(3))

    def test_defined_count_matches_table(self):
        rng = np.random.default_rng(2)
        for res_type, quadruples in CHI_ATOMS.items():
            if res_type != "LYS":
                continue
            chis = rng.uniform(-np.pi, np.pi, 4)
            chi = sidechain_torsions(_lysine(chis)).chi
            assert sum(c is not None for c in chi) == len(quadruples)

    def test_chi_values_match_projection_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            res = _lysine(rng.uniform(-np.pi, np.pi, 4))
            chi = sidechain_torsions(res).chi
            for k, names in enumerate(CHI_ATOMS["LYS"]):
                quad = [res.atom(n).position for n in names]
                assert angle_close(chi[k], dihedral_oracle(*quad), 1e-12)


class TestKnnGraph:
    def test_collinear_tie_break(self):
        topo = knn_graph([(0, 0, 0), (1, 0, 0), (2, 0, 0)], k=1)
        assert sorted(map(tuple, topo.edges)) == [(0, 1), (1, 0), (1, 2)]

    def test_k_clamps_to_n_minus_1(self):
        rng = np.random.default_rng(4)
        topo = knn_graph(rng.normal(size=(5, 3)), k=16)
        counts = np.bincount(topo.edges[:, 1], minlength=5)
        assert np.all(counts == 4)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(1, 20))
            pts = rng.normal(size=(n, 3)) * 5.0
            topo = knn_graph(pts, k)
            assert [tuple(e) for e in topo.edges] == knn_oracle(pts, k)

    def test_rigid_motion_leaves_edges(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(25, 3)) * 3.0
        base = knn_graph(pts, 4).edges
        R = random_rotation(rng)
        moved = knn_graph(pts @ R.T + rng.normal(size=3), 4).edges
        assert np.array_equal(base, moved)

    def test_too_few_nodes(self):
        with pytest.raises(TooFewNodes):
            knn_graph([(0, 0, 0)], k=1)

    def test_k_below_one(self):
        """A k below 1 is an argument error, as the CLI reports it."""
        for k in (0, -3):
            with pytest.raises(DegenerateConfiguration,
                               match=f"^k must be >= 1, got {k}$"):
                knn_graph([(0, 0, 0), (1, 0, 0)], k=k)

    def test_lattice_ties_match_oracle(self):
        # integer points: squared distances are exact, so ties abound;
        # n spans several row blocks and ends in a partial one at any
        # power-of-two block size up to 256
        rng = np.random.default_rng(15)
        for n, k in ((50, 6), (257, 16), (515, 9)):
            pts = rng.integers(-4, 5, size=(n, 3)).astype(float)
            topo = knn_graph(pts, k)
            assert [tuple(e) for e in topo.edges] == knn_oracle(pts, k)

    def test_duplicate_points_match_oracle(self):
        rng = np.random.default_rng(16)
        base = rng.normal(size=(12, 3))
        pts = np.concatenate((base, base[::2], base[:3]))
        for k in (1, 3, 7):
            topo = knn_graph(pts, k)
            assert [tuple(e) for e in topo.edges] == knn_oracle(pts, k)

    def test_k_clamped_matches_oracle(self):
        pts = np.asarray([(x, y, 0) for x in range(3) for y in range(3)], float)
        topo = knn_graph(pts, 40)
        assert topo.num_edges == 9 * 8
        assert [tuple(e) for e in topo.edges] == knn_oracle(pts, 40)

    def test_non_finite_point_raises(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(DegenerateGeometry):
                knn_graph([(0, 0, 0), (1, 0, 0), (bad, 0, 0)], k=1)

    def test_matches_einsum_block_loop(self):
        # the edges of the einsum loop, whose sum order (dx² + dz²) + dy²
        # knn_graph keeps: chain-like 3-decimal clouds over one to three of
        # the oracle's 256-row blocks (many of knn_graph's), integer lattices
        # full of ties, duplicated points, and offsets about the origin with
        # their coordinates swapped pairwise: a swap ties two distances
        # exactly in one sum order only, so the full ranking (k = n - 1)
        # tells the orders apart
        rng = np.random.default_rng(18)
        clouds = []
        for n in (200, 519, 768):
            walk = np.cumsum(rng.normal(size=(n, 3)) * 2.2, axis=0)
            clouds.append(np.round(walk + rng.normal(size=(n, 3)) * 0.02, 3))
        clouds.append(rng.integers(-4, 5, size=(515, 3)) * 1.0)
        base = np.round(rng.normal(size=(256, 3)) * 9.0, 3)
        clouds.append(np.concatenate((base, base[::3], base[:40])))
        v = np.round(rng.uniform(-9.0, 9.0, size=(80, 3)), 3)
        swapped = np.concatenate((np.zeros((1, 3)), v, v[:, [2, 1, 0]],
                                  v[:, [1, 0, 2]], v[:, [0, 2, 1]]))
        cases = [(pts, k) for pts in clouds + [swapped] for k in (1, 5, 16, 30)]
        # the block cull's edge cases: a walk of 32·12 + 5 points (a last
        # block of 5 rows) in chain and in shuffled order, the same walk
        # shrunk to 1e-9 steps at 1e4 and to 1e-170 (squared differences
        # underflow, so only the box's slack keeps the ties), two clusters
        # of k duplicates in one block with points just off the first, a
        # cluster of more duplicates than k, and 4 translated copies of a
        # piece of the walk, whose blocks' boxes hold one copy each;
        # k = 31, 32 and 40 leave blocks of at most k rows
        walk = np.round(np.cumsum(rng.normal(size=(389, 3)) * 2.2, axis=0), 3)
        # first block: 16 copies each of a and of a + 3x̂, so the rows' 15th
        # distances in the block are 0 but their 16th are 9 (k = 16)
        a = walk[150]
        cluster = np.concatenate((
            np.repeat([a, a + (3.0, 0.0, 0.0)], 16, axis=0),
            a + np.diag([-0.5, 0.5, 0.5]), np.repeat(walk[151:152], 45, 0),
            walk[152:300]))
        culled = [walk, walk[rng.permutation(len(walk))], 1e4 + walk * 1e-9,
                  walk * 1e-170, cluster]
        cases += [(pts, k) for pts in culled for k in (1, 16, 31, 32, 40)]
        copies = np.concatenate([walk[:160] + (400.0 * i, 0, 0)
                                 for i in range(4)])
        cases += [(copies, 1), (copies, 16)]
        for pts, k in cases + [(swapped, len(swapped))]:
            assert np.array_equal(knn_graph(pts, k).edges,
                                  knn_graph_oracle(pts, k))

    def test_translated_walks_at_scale(self):
        # 8 translated 2 000-point walks: sampled target rows against a
        # per-row einsum ranking with (distance, index) ties
        rng = np.random.default_rng(19)
        walk = np.round(np.cumsum(rng.normal(size=(2000, 3)) * 2.2, axis=0), 3)
        pts = np.concatenate([walk + (150.0 * i, 60.0 * (i % 3), 0.0)
                              for i in range(8)])
        k, n = 16, len(pts)
        edges = knn_graph(pts, k).edges
        assert len(edges) == n * k
        targets = rng.choice(n, 64, replace=False)
        diff = pts[targets, None, :] - pts[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        d2[np.arange(len(targets)), targets] = np.inf
        for i, row in zip(targets, d2):
            nearest = np.lexsort((np.arange(n), row))[:k]
            assert np.array_equal(edges[i * k:(i + 1) * k, 0], nearest)
            assert np.all(edges[i * k:(i + 1) * k, 1] == i)

    def test_memory_is_not_quadratic(self):
        # the dense (n, n, 3) difference tensor alone would be 600 MB
        pts = np.random.default_rng(17).normal(size=(5000, 3)) * 40.0
        tracemalloc.start()
        try:
            topo = knn_graph(pts, 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert topo.num_edges == 5000 * 16
        assert peak < 100e6


class TestNearMasks:
    @staticmethod
    def assert_matches_oracle(points, targets, cutoff):
        # both masks against the 27-cell oracle, each way round, and the
        # swapped call swaps the masks
        hit, target_hit = near_masks(points, targets, cutoff)
        assert np.array_equal(hit, within_cutoff_oracle(points, targets, cutoff))
        assert np.array_equal(target_hit,
                              within_cutoff_oracle(targets, points, cutoff))
        swapped = near_masks(targets, points, cutoff)
        assert np.array_equal(swapped[0], target_hit)
        assert np.array_equal(swapped[1], hit)
        return hit, target_hit

    def test_random_clouds_either_side_drives(self):
        rng = np.random.default_rng(61)
        sizes = [(0, 37), (400, 0), (1, 400), (400, 1), (250, 250)]
        sizes += [tuple(rng.integers(0, 401, size=2)) for _ in range(25)]
        contacts = 0
        for m, t in sizes:
            points = np.round(rng.uniform(0.0, 25.0, size=(m, 3)), 3)
            targets = np.round(rng.uniform(0.0, 25.0, size=(t, 3)), 3)
            contacts += self.assert_matches_oracle(points, targets, 3.5)[0].sum()
        assert contacts > 1000
        # the oracle has no grid for two empty sets; the search finds nothing
        hit, target_hit = near_masks(np.empty((0, 3)), np.empty((0, 3)), 3.5)
        assert hit.shape == target_hit.shape == (0,)

    def test_lattice_boundary_pairs_and_cutoff_ulps(self):
        # a sparse half-integer lattice, and targets each exactly 3.5 A
        # from a point (squared distances of 12.25 are exact)
        rng = np.random.default_rng(62)
        points = rng.integers(-40, 41, size=(150, 3)) * 0.5
        steps = np.array([v for v in itertools.product(np.arange(-7, 8) * 0.5,
                                                       repeat=3)
                          if np.dot(v, v) == 12.25])
        targets = points[:90] + steps[rng.integers(0, len(steps), size=90)]
        d2 = ((points[:, None] - targets[None])**2).sum(axis=-1)
        assert (d2 == 12.25).sum() >= 90
        masks = [self.assert_matches_oracle(points, targets, cutoff)[0]
                 for cutoff in (np.nextafter(3.5, 0.0), 3.5,
                                np.nextafter(3.5, 4.0))]
        assert masks[0].sum() < masks[1].sum() == masks[2].sum()

    def test_identical_flat_and_wide_clouds(self):
        rng = np.random.default_rng(63)
        cloud = np.round(rng.uniform(0.0, 20.0, size=(300, 3)), 3)
        hit, target_hit = self.assert_matches_oracle(cloud, cloud, 3.5)
        assert hit.all() and target_hit.all()
        flat = cloud.copy()
        flat[:, 2] = 7.25
        self.assert_matches_oracle(flat[:200], flat[200:], 3.5)
        # extent 1e7: the 2**-20 floor (about 9.5 A) sets the cell edge
        wide = np.concatenate((cloud, [[1e7, 1e7, 1e7], [1e7, 1e7 + 2.0, 1e7]]))
        assert np.ptp(wide) / 2**20 > 3.5 * (1 + 1e-6)
        hit, _ = self.assert_matches_oracle(wide[::2], wide[1::2], 3.5)
        assert hit[-1]

    def test_larger_set_culled_to_the_smaller_box(self):
        # two metal-like targets in a wide cloud: most points lie outside the
        # targets' box grown by a cell; five lie exactly 3.5 A outside it
        # along one axis (squared distance 12.25, exact), one an ulp further
        rng = np.random.default_rng(65)
        targets = np.array([[10.0, 10.0, 10.0], [14.0, 12.0, 10.5]])
        edge = [[6.5, 10.0, 10.0], [17.5, 12.0, 10.5], [10.0, 6.5, 10.0],
                [14.0, 15.5, 10.5], [14.0, 12.0, 14.0],
                [np.nextafter(6.5, 0.0), 10.0, 10.0]]
        points = np.concatenate(
            (np.round(rng.uniform(-30.0, 50.0, size=(2000, 3)), 3), edge))
        for cutoff in (3.5, 0.5):
            hit, target_hit = self.assert_matches_oracle(points, targets, cutoff)
            assert hit.tolist() == [bool(h) for h in proximity_oracle(
                points[:, None], targets, cutoff)]
            assert target_hit.tolist() == [bool(h) for h in proximity_oracle(
                targets[:, None], points, cutoff)]
        hit, target_hit = near_masks(points, targets, 3.5)
        assert hit[-6:].tolist() == [True] * 5 + [False] and target_hit.all()
        assert hit.sum() < 40
        # nothing within a cell of the box: both masks stay False
        hit, target_hit = near_masks(points + 100.0, targets, 3.5)
        assert not hit.any() and not target_hit.any()

    def test_non_finite_raises(self):
        good = np.zeros((4, 3))
        for bad in (np.nan, np.inf, -np.inf):
            broken = good.copy()
            broken[2, 1] = bad
            for points, targets in ((broken, good), (good, broken)):
                with pytest.raises(DegenerateGeometry):
                    near_masks(points, targets, 3.5)

    def test_memory_is_linear_in_candidates(self):
        # 100 000 points against 100 000 targets in one 107 A box (about
        # protein atom density): a dense m x t search would need about 80 GB
        rng = np.random.default_rng(64)
        points, targets = rng.uniform(0.0, 107.0, size=(2, 100_000, 3))
        tracemalloc.start()
        try:
            hit, target_hit = near_masks(points, targets, 3.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert hit.sum() > 99_000 and target_hit.sum() > 99_000
        assert peak < 120e6


class TestKabsch:
    def test_identity(self):
        rng = np.random.default_rng(21)
        A = rng.normal(size=(10, 3))
        sup = kabsch(A, A)
        assert sup.rmsd == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(sup.rotation, np.eye(3), atol=1e-12)
        assert np.allclose(sup.translation, 0.0, atol=1e-12)

    def test_recovers_constructed_motion(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            A = rng.normal(size=(12, 3)) * 4.0
            R0 = random_rotation(rng)
            t0 = rng.normal(size=3) * 8.0
            sup = kabsch(A, A @ R0.T + t0)
            assert sup.rmsd <= 1e-10
            assert np.allclose(sup.rotation, R0, atol=1e-8)

    def test_mirror_has_positive_rmsd(self):
        A = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        B = A.copy()
        B[:, 2] = -B[:, 2]
        sup = kabsch(A, B)
        assert sup.rmsd > 0.1
        assert np.linalg.det(sup.rotation) == pytest.approx(1.0, abs=1e-12)

    def test_rotation_always_proper(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            A = rng.normal(size=(6, 3))
            B = rng.normal(size=(6, 3))
            sup = kabsch(A, B)
            assert np.linalg.det(sup.rotation) == pytest.approx(1.0, abs=1e-10)
            assert np.allclose(sup.rotation.T @ sup.rotation, np.eye(3),
                               atol=1e-10)

    def test_collinear_raises(self):
        line = np.array([[i, 0.0, 0.0] for i in range(5)])
        with pytest.raises(DegenerateConfiguration):
            kabsch(line, line)

    def test_short_input_raises(self):
        with pytest.raises(DegenerateConfiguration):
            kabsch([(0, 0, 0), (1, 1, 1)], [(0, 0, 0), (1, 1, 1)])


class TestSuperpose:
    @pytest.mark.parametrize("m", [3, 8])
    def test_matches_oracle_bit_for_bit(self, m):
        rng = make_rng(700 + m)
        A = rng.normal(size=(400, m, 3)) * 4.0
        # half the rows a noisy proper motion of A, half a noisy mirror
        # image, so both branches of the SVD sign correction are taken
        M = np.stack([random_rotation(rng) if i % 2 else random_reflection(rng)
                      for i in range(len(A))])
        B = (A @ np.swapaxes(M, 1, 2) + rng.normal(size=(len(A), 1, 3)) * 8.0
             + rng.normal(size=A.shape) * 0.3)
        R, t = superpose(A, B)
        reflected = 0
        for a, b, r, tt in zip(A, B, R, t):
            want = kabsch_oracle(a, b)
            assert np.array_equal(r, want.rotation)
            assert np.array_equal(tt, want.translation)
            ac, bc = a - a.mean(axis=0), b - b.mean(axis=0)
            U, _, Vt = np.linalg.svd(ac.T @ bc)
            reflected += np.linalg.det(Vt.T @ U.T) < 0
        assert 100 < reflected < 300

    def test_kabsch_is_one_row(self):
        rng = make_rng(710)
        A, B = rng.normal(size=(2, 6, 3))
        sup, want = kabsch(A, B), kabsch_oracle(A, B)
        assert np.array_equal(sup.rotation, want.rotation)
        assert np.array_equal(sup.translation, want.translation)
        assert sup.rmsd == want.rmsd

    def test_degenerate_stacks_raise(self):
        rng = make_rng(711)
        A = rng.normal(size=(4, 5, 3))
        with pytest.raises(DegenerateConfiguration, match="length"):
            superpose(A, A[:, :4])
        with pytest.raises(DegenerateConfiguration, match="3 points"):
            superpose(A[:, :2], A[:, :2])
        A[2] = np.arange(5)[:, None] * [1.0, 2.0, -0.5]  # one collinear row
        with pytest.raises(DegenerateConfiguration, match="collinear"):
            superpose(A, A)


class TestBondAngle:
    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_law_of_cosines(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(3, 3))
        try:
            value = bond_angle(*pts)
        except DegenerateGeometry:
            return
        assert abs(value - bond_angle_oracle(*pts)) < 1e-10
