import dataclasses

import numpy as np
import pytest

from foldkit.codec import to_internal
from foldkit.errors import (DegenerateConfiguration, DegenerateGeometry,
                            FoldkitError, MissingConfidence, SelectorEmpty,
                            SingleChain, TooFewNodes)
from foldkit.featurise import FeatureScheme, build_graph, positional_encoding
from foldkit.geometry import dihedral, kabsch, superpose
from foldkit.gnn import schnet_params
from foldkit.pdb import parse_pdb
from foldkit.residues import MASK_INDEX, RESIDUE_INDEX, UNK_INDEX
from foldkit.rng import make_rng
from foldkit.structure import Atom, Chain, Residue, Structure
from foldkit.synth import random_chain, single_chain_structure
from foldkit.tasks import (CorruptionKind, CorruptionSpec, MaskedAttribute,
                           binding_site_labels, corrupt_coords_gaussian, corrupt_coords_uniform,
                           corrupt_sequence_mask, corrupt_sequence_mutate,
                           corrupt_structure, corrupt_torsions,
                           interface_labels, masked_attribute_targets,
                           plddt_targets)

from helpers import (angle_close, atom_line, corrupt_torsions_oracle,
                     full_atom_dimer, proximity_oracle, random_rotation,
                     transform_structure)


class TestSequenceMutate:
    def test_exact_count(self):
        rng = make_rng(1)
        res = rng.integers(0, 20, size=100)
        out = corrupt_sequence_mutate(res, 0.25, make_rng(2))
        assert out.corrupted_mask.sum() == 25
        assert len(out.targets.positions) == 25

    def test_nu_zero_identity(self):
        res = np.arange(20) % 20
        out = corrupt_sequence_mutate(res, 0.0, make_rng(3))
        assert np.array_equal(out.corrupted, res)
        assert out.corrupted_mask.sum() == 0

    def test_never_keeps_original(self):
        rng = make_rng(4)
        res = rng.integers(0, 20, size=500)
        out = corrupt_sequence_mutate(res, 1.0, make_rng(5))
        assert np.all(out.corrupted != res)
        assert np.all(out.corrupted < 20)

    def test_targets_recover_originals(self):
        res = np.arange(40) % 20
        out = corrupt_sequence_mutate(res, 0.5, make_rng(6))
        assert np.array_equal(out.targets.original_residues,
                              res[out.targets.positions])

    def test_non_canonical_originals_draw_all_20(self):
        res = np.tile([UNK_INDEX, MASK_INDEX], 200)
        out = corrupt_sequence_mutate(res, 1.0, make_rng(8))
        assert np.all(out.corrupted < 20)
        assert set(out.corrupted.tolist()) == set(range(20))

    def test_replacement_uniform_over_19(self):
        # single fixed original type; 1e5 mutations; 3-sigma multinomial bounds
        n = 100_000
        res = np.full(n, RESIDUE_INDEX["ALA"])
        out = corrupt_sequence_mutate(res, 1.0, make_rng(7))
        counts = np.bincount(out.corrupted, minlength=20)
        assert counts[RESIDUE_INDEX["ALA"]] == 0
        p = 1.0 / 19.0
        sigma = np.sqrt(n * p * (1 - p))
        others = np.delete(counts, RESIDUE_INDEX["ALA"])
        assert np.all(np.abs(others - n * p) <= 3.0 * sigma)


class TestSequenceMask:
    def test_nu_one_masks_everything(self):
        res = np.arange(30) % 20
        out = corrupt_sequence_mask(res, 1.0, make_rng(8))
        assert np.all(out.corrupted == MASK_INDEX)

    def test_floor_rule(self):
        res = np.arange(8) % 20
        out = corrupt_sequence_mask(res, 0.25, make_rng(9))
        assert out.corrupted_mask.sum() == 2

    def test_onehot_rows_at_mask_index(self):
        s = single_chain_structure(random_chain(12, make_rng(10)))
        result = corrupt_structure(
            s, CorruptionSpec(CorruptionKind.SEQ_MASK, nu=0.5, seed=11))
        S = build_graph(result.corrupted, FeatureScheme.CA_IDENT, k=4).scalars
        assert len(result.targets.positions) == 6
        for pos in result.targets.positions:
            row = np.zeros(23)
            row[MASK_INDEX] = 1.0
            assert np.array_equal(S[pos], row)


class TestCoordinateNoise:
    def test_sigma_zero_identity(self):
        X = make_rng(12).normal(size=(50, 3))
        out = corrupt_coords_gaussian(X, 0.0, make_rng(13))
        assert np.array_equal(out.corrupted, X)
        out = corrupt_coords_uniform(X, 0.0, make_rng(13))
        assert np.array_equal(out.corrupted, X)

    def test_gaussian_std_matches_sigma(self):
        X = np.zeros((100_000, 3))
        out = corrupt_coords_gaussian(X, 0.1, make_rng(14))
        stds = np.std(np.asarray(out.corrupted), axis=0)
        assert np.all(np.abs(stds - 0.1) / 0.1 < 0.05)

    def test_exact_inverse(self):
        X = make_rng(15).normal(size=(40, 3))
        out = corrupt_coords_gaussian(X, 0.3, make_rng(16))
        recovered = np.asarray(out.corrupted) - out.targets.sigma * out.targets.noise
        assert np.max(np.abs(recovered - X)) < 1e-12

    def test_uniform_support_and_variance(self):
        X = np.zeros((100_000, 3))
        out = corrupt_coords_uniform(X, 0.2, make_rng(17))
        noised = np.asarray(out.corrupted)
        assert np.all(np.abs(noised) <= 0.2)
        var = np.var(noised, axis=0)
        assert np.all(np.abs(var - 0.2**2 / 3.0) / (0.2**2 / 3.0) < 0.05)


def _bb(chain):
    return np.asarray([res.atom(n).position for res in chain.residues
                       for n in ("N", "CA", "C", "O")])


class TestTorsionNoise:
    def test_sigma_zero_superposes(self):
        chain = random_chain(20, make_rng(18))
        out = corrupt_torsions(chain, 0.0, make_rng(19))
        assert kabsch(_bb(chain), _bb(out.corrupted)).rmsd <= 1e-6

    def test_measured_equals_original_plus_noise(self):
        chain = random_chain(25, make_rng(20))
        out = corrupt_torsions(chain, 0.4, make_rng(21))
        ic0 = to_internal(chain)
        ic1 = to_internal(out.corrupted)
        noise = out.targets.angular_noise
        originals = np.stack([ic0.phi, ic0.psi, ic0.omega], axis=1)
        measured = np.stack([ic1.phi, ic1.psi, ic1.omega], axis=1)
        mask = ic0.defined_torsions
        for i in range(len(originals)):
            for k in range(3):
                if mask[i, k]:
                    assert angle_close(measured[i, k],
                                       originals[i, k] + noise[i, k], 1e-6)

    def test_bond_geometry_untouched(self):
        chain = random_chain(25, make_rng(22))
        out = corrupt_torsions(chain, 0.4, make_rng(23))
        ic0 = to_internal(chain)
        ic1 = to_internal(out.corrupted)
        assert np.max(np.abs(ic0.theta_n - ic1.theta_n)) < 1e-6
        assert np.max(np.abs(ic0.theta_ca - ic1.theta_ca)) < 1e-6
        assert np.max(np.abs(ic0.theta_c - ic1.theta_c)) < 1e-6

    def test_bond_lengths_stay_canonical(self):
        from foldkit.codec import DEFAULT_GEOMETRY as g
        chain = random_chain(20, make_rng(90))
        out = corrupt_torsions(chain, 0.5, make_rng(91))
        residues = out.corrupted.residues
        for i, res in enumerate(residues):
            n, ca, c = (res.atom(x).position for x in ("N", "CA", "C"))
            assert abs(np.linalg.norm(ca - n) - g.n_ca) < 1e-9
            assert abs(np.linalg.norm(c - ca) - g.ca_c) < 1e-9
            if i + 1 < len(residues):
                n_next = residues[i + 1].atom("N").position
                assert abs(np.linalg.norm(n_next - c) - g.c_n) < 1e-9

    def test_original_angles_carried(self):
        chain = random_chain(10, make_rng(24))
        out = corrupt_torsions(chain, 0.2, make_rng(25))
        ic0 = to_internal(chain)
        assert np.array_equal(out.targets.original_angles[:, 0], ic0.phi)


class TestTorsionNoiseKeepsAtoms:
    """corrupt_structure(TORSION_GAUSS) on a full-atom two-chain structure
    moves positions only: every atom, residue and ligand keeps its
    metadata, side chains move rigidly with their residue's backbone."""

    @pytest.fixture(scope="class", params=[0.0, 0.3])
    def case(self, request):
        s = full_atom_dimer()
        spec = CorruptionSpec(CorruptionKind.TORSION_GAUSS,
                              sigma=request.param, seed=5)
        return s, corrupt_structure(s, spec)

    def test_atoms_and_residues_keep_their_metadata(self, case):
        s, out = case
        assert [c.id for c in out.corrupted.chains] == ["A", "B"]
        for (_, res), (_, new) in zip(s.iter_residues(),
                                      out.corrupted.iter_residues()):
            assert (new.res_type, new.seq_index, new.insertion_code) == \
                (res.res_type, res.seq_index, res.insertion_code)
            assert [(a.name, a.serial, a.element, a.occupancy, a.b_factor)
                    for a in new.atoms] == \
                [(a.name, a.serial, a.element, a.occupancy, a.b_factor)
                 for a in res.atoms]
        assert out.corrupted.ligands == s.ligands
        assert out.corrupted.num_residues == s.num_residues == 16

    def test_positions_match_the_per_residue_oracle(self):
        for chain in full_atom_dimer().chains:
            out = corrupt_torsions(chain, 0.3, make_rng(8))
            got = np.array([a.position for res in out.corrupted.residues
                            for a in res.atoms])
            assert np.array_equal(
                got, corrupt_torsions_oracle(chain, 0.3, make_rng(8)))

    def test_side_chains_move_rigidly(self, case):
        s, out = case
        for (_, res), (_, new) in zip(s.iter_residues(),
                                      out.corrupted.iter_residues()):
            rigid = [a.name for a in res.atoms
                     if a.name not in ("N", "CA", "C", "O")] + ["CA"]
            old = np.array([res.atom(x).position for x in rigid])
            moved = np.array([new.atom(x).position for x in rigid])
            # distances among the side-chain atoms and to their CA
            assert np.max(np.abs(
                np.linalg.norm(old[:, None] - old[None], axis=-1)
                - np.linalg.norm(moved[:, None] - moved[None], axis=-1))) <= 1e-9

    def test_backbone_bonds_are_canonical(self, case):
        from foldkit.codec import DEFAULT_GEOMETRY as g
        _, out = case
        for chain in out.corrupted.chains:
            for i, res in enumerate(chain.residues):
                n, ca, c = (res.atom(x).position for x in ("N", "CA", "C"))
                assert abs(np.linalg.norm(ca - n) - g.n_ca) <= 1e-9
                assert abs(np.linalg.norm(c - ca) - g.ca_c) <= 1e-9
                if res.atom("O") is not None:
                    o = res.atom("O").position
                    assert abs(np.linalg.norm(o - c) - g.c_o) <= 1e-9
                if i + 1 < len(chain.residues):
                    n_next = chain.residues[i + 1].atom("N").position
                    assert abs(np.linalg.norm(n_next - c) - g.c_n) <= 1e-9

    def test_torsions_are_original_plus_noise(self, case):
        s, out = case
        measured = np.concatenate([
            np.stack([ic.phi, ic.psi, ic.omega], axis=1)
            for ic in map(to_internal, out.corrupted.chains)])
        originals = out.targets.original_angles
        noise = out.targets.angular_noise
        assert noise.shape == originals.shape == (16, 3)
        mask = np.concatenate([to_internal(c).defined_torsions
                               for c in s.chains])
        assert np.all(noise[~mask] == 0.0)
        for got, want in zip(measured[mask], (originals + noise)[mask]):
            assert angle_close(got, want, 1e-6)
        # carbonyl O is rebuilt at torsion psi + pi (psi of the last residue
        # counts as 0), as the codec places it
        psi = np.where(mask[:, 1], originals[:, 1] + noise[:, 1], 0.0)
        residues = [res for _, res in out.corrupted.iter_residues()]
        for res, p in zip(residues, psi):
            if res.atom("O") is not None:
                got = dihedral(*(res.atom(x).position
                                 for x in ("N", "CA", "C", "O")))
                assert angle_close(got, p + np.pi, 1e-6)

    def test_sigma_zero_keeps_positions(self):
        s = full_atom_dimer()
        out = corrupt_structure(
            s, CorruptionSpec(CorruptionKind.TORSION_GAUSS, sigma=0.0))
        for (_, res), (_, new) in zip(s.iter_residues(),
                                      out.corrupted.iter_residues()):
            for a, b in zip(res.atoms, new.atoms):
                assert np.max(np.abs(a.position - b.position)) <= 1e-9
        # co-denoising at zero strength is the identity, bit for bit
        co = corrupt_structure(s, CorruptionSpec(CorruptionKind.CO_DENOISE,
                                                 nu=0.0, sigma=0.0, seed=1))
        assert np.array_equal(co.corrupted.table.res_type, s.table.res_type)
        assert np.array_equal(co.corrupted.table.xyz, s.table.xyz)
        assert not co.corrupted_mask.any()


class TestMaskedAttributes:
    def _graph(self, n=20, seed=27):
        s = single_chain_structure(random_chain(n, make_rng(seed)))
        return build_graph(s, FeatureScheme.CA_IDENT, k=6)

    def test_distance_3_4_5(self):
        res = (Residue("ALA", 1, None, (Atom("CA", "C", (0.0, 0.0, 0.0)),)),
               Residue("ALA", 2, None, (Atom("CA", "C", (3.0, 4.0, 0.0)),)),
               Residue("ALA", 3, None, (Atom("CA", "C", (9.0, 9.0, 9.0)),)))
        s = Structure("TST", (Chain("A", res),))
        g = build_graph(s, FeatureScheme.CA_IDENT, k=2)
        out = masked_attribute_targets(g, MaskedAttribute.DISTANCE, 1.0,
                                       make_rng(28))
        pair_to_value = {tuple(t): v for t, v in zip(out.indices, out.values)}
        assert pair_to_value[(0, 1)] == pytest.approx(5.0)

    def test_dihedral_matches_geometry_module(self):
        from foldkit.geometry import dihedral
        g = self._graph()
        out = masked_attribute_targets(g, MaskedAttribute.DIHEDRAL, 1.0,
                                       make_rng(29))
        for quad, value in zip(out.indices, out.values):
            X = g.coords
            assert value == pytest.approx(
                dihedral(X[quad[0]], X[quad[1]], X[quad[2]], X[quad[3]]))

    def test_fraction_zero_empty(self):
        g = self._graph()
        out = masked_attribute_targets(g, MaskedAttribute.ANGLE, 0.0,
                                       make_rng(30))
        assert len(out.values) == 0

    def test_too_few_nodes(self):
        s = single_chain_structure(random_chain(3, make_rng(31)))
        g = build_graph(s, FeatureScheme.CA_IDENT, k=2)
        with pytest.raises(TooFewNodes):
            masked_attribute_targets(g, MaskedAttribute.DIHEDRAL, 0.5,
                                     make_rng(32))


def _with_b_factors(structure, values):
    it = iter(values)
    chains = []
    for chain in structure.chains:
        residues = []
        for res in chain.residues:
            b = next(it)
            residues.append(dataclasses.replace(res, atoms=tuple(
                dataclasses.replace(a, b_factor=b) for a in res.atoms)))
        chains.append(dataclasses.replace(chain, residues=tuple(residues)))
    return dataclasses.replace(structure, chains=tuple(chains))


class TestPlddt:
    def test_scaling_and_clamp(self):
        s = single_chain_structure(random_chain(3, make_rng(33)))
        s = _with_b_factors(s, [100.0, 70.5, 120.0])
        out = plddt_targets(s)
        assert np.allclose(out.values, [1.0, 0.705, 1.0])

    def test_missing_confidence(self):
        s = single_chain_structure(random_chain(3, make_rng(34)))
        with pytest.raises(MissingConfidence):
            plddt_targets(s)


def _zn_structure(chain, *zn_positions):
    """chain with one ZN ligand residue per position, in chain Z."""
    return single_chain_structure(chain, ligands=(Chain("Z", tuple(
        Residue("ZN", 1 + i, None, (Atom("ZN", "ZN", np.asarray(p, dtype=float),
                                         serial=9000 + i),))
        for i, p in enumerate(zn_positions))),))


class TestBindingSiteLabels:
    def test_cutoff_inclusive_boundary(self):
        res = Residue("ALA", 1, None, (Atom("CA", "C", (0.0, 0.0, 0.0)),))
        chain = Chain("A", (res,))
        near = _zn_structure(chain, (3.4, 0.0, 0.0))
        far = _zn_structure(chain, (3.6, 0.0, 0.0))
        assert binding_site_labels(near, {"ZN"}).labels.tolist() == [1]
        assert binding_site_labels(far, {"ZN"}).labels.tolist() == [0]

    def test_selector_empty(self):
        s = _zn_structure(Chain("A", (Residue("ALA", 1, None,
                          (Atom("CA", "C", (0.0, 0.0, 0.0)),)),)), (1, 1, 1))
        with pytest.raises(SelectorEmpty):
            binding_site_labels(s, {"MG"})

    def test_matches_bruteforce_oracle(self):
        rng = make_rng(35)
        for _ in range(10):
            chain = random_chain(15, rng)
            zn_pos = rng.normal(size=3) * 8.0
            s = _zn_structure(chain, zn_pos)
            labels = binding_site_labels(s, {"ZN"}, cutoff=3.5)
            expected = proximity_oracle(
                [[a.position for a in r.atoms] for r in chain.residues],
                [zn_pos], 3.5)
            assert labels.labels.tolist() == expected

    def test_several_sites_match_oracle(self):
        rng = make_rng(37)
        chain = random_chain(40, rng)
        ca = np.asarray([r.atom("CA").position for r in chain.residues])
        sites = ca[::9] + rng.normal(size=(5, 3)) * 2.0
        s = _zn_structure(chain, *sites)
        for cutoff in (2.5, 3.5, 6.0):
            labels = binding_site_labels(s, {"ZN"}, cutoff=cutoff)
            expected = proximity_oracle(
                [[a.position for a in r.atoms] for r in chain.residues],
                sites, cutoff)
            assert labels.labels.tolist() == expected
            assert 0 < sum(expected) < 40

    def test_bad_cutoff_raises(self):
        s = _zn_structure(random_chain(5, make_rng(38)), (0.0, 0.0, 0.0))
        for cutoff in (-3.5, 0.0, float("nan"), float("inf")):
            with pytest.raises(DegenerateConfiguration):
                binding_site_labels(s, {"ZN"}, cutoff=cutoff)

    def test_non_finite_coordinate_raises(self):
        chain = random_chain(6, make_rng(39))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DegenerateGeometry):
                binding_site_labels(_zn_structure(chain, (1.0, bad, 0.0)), {"ZN"})
            broken = _with_position(chain, 3, (bad, 0.0, 0.0))
            with pytest.raises(DegenerateGeometry):
                binding_site_labels(_zn_structure(broken, (1.0, 1.0, 1.0)), {"ZN"})

    def test_rigid_motion_invariance(self):
        rng = make_rng(36)
        s = _zn_structure(random_chain(15, rng), rng.normal(size=3) * 6.0)
        base = binding_site_labels(s, {"ZN"}).labels
        moved = transform_structure(s, random_rotation(rng),
                                    rng.normal(size=3) * 10.0)
        assert np.array_equal(binding_site_labels(moved, {"ZN"}).labels, base)


def _with_position(chain, index, position):
    """chain with the first atom of residue index moved to position."""
    residues = list(chain.residues)
    res = residues[index]
    residues[index] = dataclasses.replace(res, atoms=(dataclasses.replace(
        res.atoms[0], position=np.asarray(position)),) + res.atoms[1:])
    return Chain(chain.id, tuple(residues))


def _dimer(offset, seed=37):
    a = random_chain(10, make_rng(seed), chain_id="A")
    shifted = []
    for res in random_chain(10, make_rng(seed + 1), chain_id="B").residues:
        shifted.append(dataclasses.replace(res, atoms=tuple(
            dataclasses.replace(atom, position=atom.position + offset)
            for atom in res.atoms)))
    b = Chain("B", tuple(shifted))
    return Structure("DIM", (a, b))


class TestInterfaceLabels:
    def test_distant_chains_all_zero(self):
        s = _dimer(np.array([500.0, 0.0, 0.0]))
        assert not binding_labels_any(s)

    def test_single_chain_raises(self):
        s = single_chain_structure(random_chain(5, make_rng(38)))
        with pytest.raises(SingleChain):
            interface_labels(s)

    def test_matches_bruteforce_oracle(self):
        rng = make_rng(39)
        for trial in range(6):
            s = _dimer(np.array([6.0 + trial, 1.0, 0.0]), seed=40 + trial)
            labels = interface_labels(s, cutoff=3.5)
            chains = {c.id: c for c in s.chains}
            expected = []
            for chain, res in s.iter_residues():
                other = chains["B" if chain.id == "A" else "A"]
                other_atoms = [a.position for r in other.residues
                               for a in r.atoms]
                expected.extend(proximity_oracle(
                    [[a.position for a in res.atoms]], other_atoms, 3.5))
            assert labels.labels.tolist() == expected

    def test_three_lattice_chains_match_oracle(self):
        # integer coordinates around the origin: many atom pairs lie at
        # exactly 3 or 5 A, and the cutoff is inclusive
        rng = np.random.default_rng(42)
        chains = []
        for chain_id in "ABC":
            residues = tuple(
                Residue("GLY", i + 1, None, tuple(
                    Atom(name, "C", rng.integers(-6, 7, size=3).astype(float))
                    for name in ("N", "CA", "C")[:int(rng.integers(1, 4))]))
                for i in range(12))
            chains.append(Chain(chain_id, residues))
        s = Structure("TRI", tuple(chains))
        # 1e200 squared overflows to inf: every residue with a partner
        for cutoff in (1e-200, 1.0, 3.0, 5.0, 100.0, 1e200):
            expected = []
            for chain, res in s.iter_residues():
                others = [a.position for c in s.chains if c.id != chain.id
                          for r in c.residues for a in r.atoms]
                expected.extend(proximity_oracle(
                    [[a.position for a in res.atoms]], others, cutoff))
            assert interface_labels(s, cutoff=cutoff).labels.tolist() == expected
        assert 0 < sum(interface_labels(s, cutoff=3.0).labels) < 36
        assert interface_labels(s, cutoff=100.0).labels.all()
        assert interface_labels(s, cutoff=1e200).labels.all()

    def test_four_chains_match_oracle(self):
        # chain ids not in size order (A 30 atoms, B and D 12 each, C 15 and
        # far from the rest): each contact is found once, from the smaller
        # chain, and must mark both of its sides
        rng = np.random.default_rng(43)
        layout = {"C": (5, 3, 500.0), "A": (10, 3, 0.0), "D": (6, 2, 0.0),
                  "B": (4, 3, 0.0)}
        chains = []
        for chain_id, (n, per_residue, shift) in layout.items():
            residues = tuple(
                Residue("GLY", i + 1, None, tuple(
                    Atom(name, "C", rng.integers(-10, 11, size=3) + shift)
                    for name in ("N", "CA", "C")[:per_residue]))
                for i in range(n))
            chains.append(Chain(chain_id, residues))
        s = Structure("TET", tuple(chains))
        for cutoff in (2.0, 3.0, 3.5, 5.0):
            expected = []
            for chain, res in s.iter_residues():
                others = [a.position for c in s.chains if c.id != chain.id
                          for r in c.residues for a in r.atoms]
                expected.extend(proximity_oracle(
                    [[a.position for a in res.atoms]], others, cutoff))
            labels = interface_labels(s, cutoff=cutoff).labels.tolist()
            assert labels == expected
            assert not any(labels[:5])
        assert 5 < sum(interface_labels(s, cutoff=3.0).labels) < 20

    def test_non_finite_coordinate_raises(self):
        s = _dimer(np.array([5.0, 0.5, 0.0]))
        for bad in (np.nan, np.inf, -np.inf):
            for which in (0, 1):
                chains = list(s.chains)
                chains[which] = _with_position(chains[which], 2, (0.0, 0.0, bad))
                with pytest.raises(DegenerateGeometry):
                    interface_labels(dataclasses.replace(s, chains=tuple(chains)))

    def test_bad_cutoff_raises(self):
        s = _dimer(np.array([5.0, 0.5, 0.0]))
        for cutoff in (-3.5, 0.0, float("nan"), float("inf")):
            with pytest.raises(DegenerateConfiguration):
                interface_labels(s, cutoff=cutoff)

    def test_rigid_motion_invariance(self):
        rng = make_rng(41)
        s = _dimer(np.array([5.0, 0.5, 0.0]))
        base = interface_labels(s).labels
        moved = transform_structure(s, random_rotation(rng),
                                    rng.normal(size=3) * 10.0)
        assert np.array_equal(interface_labels(moved).labels, base)


def binding_labels_any(s):
    return bool(interface_labels(s).labels.any())


class TestStructureCorruption:
    def test_determinism_bit_identical(self):
        s = single_chain_structure(random_chain(20, make_rng(42)))
        spec = CorruptionSpec(CorruptionKind.CO_DENOISE, nu=0.25, sigma=0.1,
                              seed=123)
        a = corrupt_structure(s, spec)
        b = corrupt_structure(s, spec)
        assert a.corrupted == b.corrupted
        assert np.array_equal(a.targets.sequence.positions,
                              b.targets.sequence.positions)
        assert np.array_equal(a.targets.structure.noise,
                              b.targets.structure.noise)

    def test_sequence_kind_leaves_coordinates(self):
        s = single_chain_structure(random_chain(12, make_rng(43)))
        out = corrupt_structure(
            s, CorruptionSpec(CorruptionKind.SEQ_MUTATE, nu=0.5, seed=1))
        for (c0, r0), (c1, r1) in zip(s.iter_residues(),
                                      out.corrupted.iter_residues()):
            for a0, a1 in zip(r0.atoms, r1.atoms):
                assert np.array_equal(a0.position, a1.position)

    def test_coordinate_kind_leaves_types(self):
        s = single_chain_structure(random_chain(12, make_rng(44)))
        out = corrupt_structure(
            s, CorruptionSpec(CorruptionKind.COORD_GAUSS, sigma=0.2, seed=1))
        types0 = [r.res_type for _, r in s.iter_residues()]
        types1 = [r.res_type for _, r in out.corrupted.iter_residues()]
        assert types0 == types1

    def test_one_pass_composes_the_stand_alone_kinds(self):
        """CO_DENOISE takes SEQ_MUTATE's residue types and COORD_GAUSS's
        positions; TORSION_GAUSS runs corrupt_torsions on each chain in
        turn on stream 1. Every kind keeps the chains' ids and atom counts
        and the ligands."""
        s = full_atom_dimer()
        run = {kind: corrupt_structure(s, CorruptionSpec(kind, nu=0.5,
                                                         sigma=0.3, seed=5))
               for kind in CorruptionKind}
        co = run[CorruptionKind.CO_DENOISE]
        seq, coord = (run[CorruptionKind.SEQ_MUTATE],
                      run[CorruptionKind.COORD_GAUSS])
        assert np.array_equal(co.corrupted.table.res_type,
                              seq.corrupted.table.res_type)
        assert np.array_equal(co.corrupted.table.xyz, coord.corrupted.table.xyz)
        assert np.array_equal(co.targets.sequence.positions,
                              seq.targets.positions)
        assert np.array_equal(co.targets.structure.noise, coord.targets.noise)
        assert np.array_equal(co.corrupted_mask, seq.corrupted_mask)
        rng = make_rng(5, stream=1)
        for chain, got in zip(s.chains,
                              run[CorruptionKind.TORSION_GAUSS].corrupted.chains):
            want = corrupt_torsions(chain, 0.3, rng).corrupted
            assert np.array_equal(got.table.xyz, want.table.xyz)
        for result in run.values():
            assert [(c.id, len(c.table.owner)) for c in result.corrupted.chains] \
                == [(c.id, len(c.table.owner)) for c in s.chains]
            assert result.corrupted.ligands is s.ligands

    def test_ligand_only_structure_gives_empty_targets(self):
        s = parse_pdb("\n".join(
            atom_line(i, "ZN", "ZN", "Z", i, 2.0 * i, 0.0, 0.0, element="ZN",
                      record="HETATM") for i in (1, 2)))
        for kind in CorruptionKind:
            out = corrupt_structure(s, CorruptionSpec(kind, nu=1.0, seed=1))
            assert out.corrupted.chains == ()
            assert out.corrupted.ligands is s.ligands
            assert len(out.corrupted_mask) == 0
        targets = corrupt_structure(
            s, CorruptionSpec(CorruptionKind.TORSION_GAUSS)).targets
        assert targets.angular_noise.shape == (0, 3)
        assert targets.original_angles.shape == (0, 3)

    def test_invalid_spec(self):
        with pytest.raises(DegenerateConfiguration):
            CorruptionSpec(CorruptionKind.SEQ_MUTATE, nu=1.5)
        with pytest.raises(DegenerateConfiguration):
            CorruptionSpec(CorruptionKind.COORD_GAUSS, sigma=-0.1)
        with pytest.raises(DegenerateConfiguration):
            CorruptionSpec(CorruptionKind.COORD_GAUSS, sigma=float("nan"))
        with pytest.raises(DegenerateConfiguration):
            CorruptionSpec(CorruptionKind.TORSION_GAUSS, sigma=float("inf"))
        with pytest.raises(DegenerateConfiguration):
            CorruptionSpec(CorruptionKind.SEQ_MUTATE, seed=-1)


_RES, _XYZ = np.arange(20) % 20, make_rng(50).normal(size=(10, 3))
_CHAIN = random_chain(6, make_rng(51))
# Each public call with an invalid argument, by the rule it breaks.
_INVALID_ARGUMENTS = {
    "mutate nu > 1": lambda: corrupt_sequence_mutate(_RES, 1.5, make_rng(1)),
    "mutate nu < 0": lambda: corrupt_sequence_mutate(_RES, -0.1, make_rng(1)),
    "mask nu > 1": lambda: corrupt_sequence_mask(_RES, 2.0, make_rng(1)),
    "mask nu nan": lambda: corrupt_sequence_mask(_RES, np.nan, make_rng(1)),
    "masked fraction > 1": lambda: masked_attribute_targets(
        build_graph(single_chain_structure(_CHAIN), FeatureScheme.CA_IDENT,
                    k=3), MaskedAttribute.DISTANCE, 1.5, make_rng(1)),
    "gaussian sigma < 0": lambda: corrupt_coords_gaussian(_XYZ, -0.1,
                                                          make_rng(1)),
    "gaussian sigma nan": lambda: corrupt_coords_gaussian(_XYZ, np.nan,
                                                          make_rng(1)),
    "uniform sigma inf": lambda: corrupt_coords_uniform(_XYZ, np.inf,
                                                        make_rng(1)),
    "torsion sigma < 0": lambda: corrupt_torsions(_CHAIN, -1.0, make_rng(1)),
    "torsion sigma nan": lambda: corrupt_torsions(_CHAIN, np.nan, make_rng(1)),
    "schnet n_rbf 1": lambda: schnet_params(4, n_rbf=1),
    "schnet n_rbf 0": lambda: schnet_params(4, n_rbf=0),
    "schnet r_max 0": lambda: schnet_params(4, r_max=0.0),
    "positional dim < 0": lambda: positional_encoding(0, -2),
    "kabsch nan point": lambda: kabsch(_XYZ * [1.0, np.nan, 1.0], _XYZ),
    "superpose inf point": lambda: superpose(_XYZ[None], (_XYZ + np.inf)[None]),
}


@pytest.mark.parametrize("call", _INVALID_ARGUMENTS.values(),
                         ids=_INVALID_ARGUMENTS.keys())
def test_invalid_argument_raises_a_foldkit_error(call):
    with pytest.raises(FoldkitError):
        call()
