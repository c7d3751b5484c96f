"""The one atom gather (structure.atom_table) and its consumers against
the per-residue Residue.atom loops they replaced, and the table-backed
chains the parser makes."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldkit.codec import encode
from foldkit.errors import MissingConfidence, NoCompleteResidues
from foldkit.featurise import FeatureScheme, build_graph
from foldkit.geometry import backbone_array, chi_angles
from foldkit.pdb import parse_pdb, write_pdb
from foldkit.residues import CHI_ATOMS
from foldkit.structure import (BACKBONE_ATOMS, Atom, Chain, Granularity,
                               Residue, Structure, atom_table,
                               select_granularity)
from foldkit.tasks import (CorruptionKind, CorruptionSpec, binding_site_labels,
                           corrupt_structure, interface_labels, plddt_targets)

from helpers import (backbone_array_oracle, chi_angles_oracle,
                     plddt_values_oracle, select_granularity_oracle)

_SIDE_NAMES = sorted({name for quads in CHI_ATOMS.values() for quad in quads
                      for name in quad} - set(BACKBONE_ATOMS)) + ["OXT", "H"]
_TYPES = ["ALA", "GLY", "UNK", "LYS", "ARG", "ILE", "PHE", "SER", "CYS",
          "MSE", "MASK"]


@st.composite
def _residue_names(draw):
    """(res_type, atom names) of one residue: a random subset of backbone
    and side-chain names in random order, repeats allowed."""
    names = draw(st.lists(st.sampled_from(BACKBONE_ATOMS), max_size=5))
    names += draw(st.lists(st.sampled_from(_SIDE_NAMES), max_size=8))
    return draw(st.sampled_from(_TYPES)), draw(st.permutations(names))


@st.composite
def _structures(draw):
    """One or two chains of generated residues, always including an empty
    residue, a CA-less residue and a residue with a duplicated name,
    with random positions and b-factors (some zero)."""
    layout = draw(st.lists(_residue_names(), min_size=1, max_size=10))
    for special in (("GLY", []), ("ALA", ["N", "C", "CB", "O"]),
                    ("LYS", ["N", "CA", "CB", "CA", "CG", "CB", "CD", "CE"])):
        layout.insert(draw(st.integers(0, len(layout))), special)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    residues = []
    for i, (res_type, names) in enumerate(layout):
        atoms = tuple(Atom(name, name[0], rng.normal(scale=3.0, size=3),
                           b_factor=float(rng.choice([0.0, 37.5, 91.25])),
                           serial=100 * i + j)
                      for j, name in enumerate(names))
        residues.append(Residue(res_type, i + 1, None, atoms))
    cut = draw(st.integers(0, len(residues)))
    chains = tuple(Chain(cid, tuple(part)) for cid, part in
                   (("A", residues[:cut]), ("B", residues[cut:])) if part)
    return Structure("GEN", chains)


def _outcome(fn, *args):
    """fn(*args), or the type of the expected error it raised."""
    try:
        return fn(*args)
    except (MissingConfidence, NoCompleteResidues) as exc:
        return type(exc)


def _shape_of(s):
    """Chains, residues and atom identities of a structure."""
    if isinstance(s, type):
        return s
    return [(c.id, [(r.res_type, r.seq_index, r.insertion_code,
                     [id(a) for a in r.atoms]) for r in c.residues])
            for c in s.chains]


class TestAtomTable:
    @settings(max_examples=60, deadline=None)
    @given(_structures())
    def test_slots_follow_residue_atom(self, s):
        residues = [r for _, r in s.iter_residues()]
        names = ("CA", "N", "CB", "CA", "XX", "CG")
        table = atom_table(residues)
        slots = table.slots(names)
        assert slots.shape == (len(residues), len(names))
        for res, row in zip(residues, slots.tolist()):
            for name, j in zip(names, row):
                expected = res.atom(name)
                assert (j == -1) if expected is None else table.atoms[j] is expected
        assert np.array_equal(table.owner, np.repeat(
            np.arange(len(residues)), [len(r.atoms) for r in residues]))
        assert table.xyz.shape == (len(table.atoms), 3)
        assert all(np.array_equal(p, a.position)
                   for p, a in zip(table.xyz, table.atoms))

    def test_empty_inputs(self):
        table = atom_table([])
        assert table.xyz.shape == (0, 3)
        assert table.slots(BACKBONE_ATOMS).shape == (0, 4)
        table = atom_table([Residue("GLY", 1), Residue("ALA", 2)])
        assert table.slots(("CA",)).tolist() == [[-1], [-1]]
        xyz, present = backbone_array(Chain("A", table.residues))
        assert not present.any() and not xyz.any()
        assert np.isnan(chi_angles(table.residues)).all()


class TestConsumersMatchOracles:
    @settings(max_examples=60, deadline=None)
    @given(_structures())
    def test_backbone_and_chi(self, s):
        for chain in s.chains:
            got, want = backbone_array(chain), backbone_array_oracle(chain)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            assert np.array_equal(chi_angles(chain.residues),
                                  chi_angles_oracle(chain.residues),
                                  equal_nan=True)

    @settings(max_examples=60, deadline=None)
    @given(_structures())
    def test_select_granularity(self, s):
        for level in Granularity:
            assert (_shape_of(_outcome(select_granularity, s, level))
                    == _shape_of(_outcome(select_granularity_oracle, s, level)))

    @settings(max_examples=60, deadline=None)
    @given(_structures())
    def test_plddt_targets(self, s):
        want = plddt_values_oracle(s)
        if not want.any():
            with pytest.raises(MissingConfidence):
                plddt_targets(s)
        else:
            assert np.array_equal(plddt_targets(s).values,
                                  np.clip(want / 100.0, 0.0, 1.0))


FIXTURES = Path(__file__).parent / "fixtures" / "pdb"


def _built_views(s):
    """The tables of s whose Residue/Atom views have been built."""
    tables = [c.table for c in s.chains + s.ligands] + [s.table]
    return [t for t in tables if "residues" in vars(t)]


class TestTableBackedChains:
    def test_hot_consumers_never_build_views(self):
        dimer = parse_pdb((FIXTURES / "dimer.pdb").read_text())
        helix = parse_pdb((FIXTURES / "helix_zn.pdb").read_text())
        build_graph(dimer, FeatureScheme.CA_SC)
        interface_labels(dimer)
        build_graph(helix, FeatureScheme.CA_BB)
        binding_site_labels(helix, {"ZN"})
        with pytest.raises(MissingConfidence):  # the fixtures hold no pLDDT
            plddt_targets(helix)
        assert helix.hetero_codes == {"ZN"}
        encode(helix.chains[0])
        write_pdb(dimer)
        write_pdb(helix)
        assert _built_views(dimer) == [] and _built_views(helix) == []
        assert len(helix.ligands) == 1
        for s in (dimer, helix):
            for kind in CorruptionKind:
                out = corrupt_structure(s, CorruptionSpec(kind, seed=3))
                write_pdb(out.corrupted)
                assert _built_views(out.corrupted) == [], kind
            assert _built_views(s) == []

    def test_views_behave_as_hand_built_chains(self):
        s = parse_pdb((FIXTURES / "dimer.pdb").read_text())
        chain = s.chains[0]
        built = Chain(chain.id, tuple(
            Residue(r.res_type, r.seq_index, r.insertion_code, tuple(
                Atom(a.name, a.element, a.position.copy(), a.occupancy,
                     a.b_factor, a.serial) for a in r.atoms))
            for r in chain.residues))
        assert chain == built and built == chain
        assert repr(chain) == repr(built)
        assert chain.residues is chain.residues  # built once
        atom = chain.residues[0].atoms[0]
        assert np.shares_memory(atom.position, chain.table.xyz)
        moved = dataclasses.replace(chain, id="Z")
        assert moved.id == "Z" and moved.residues == chain.residues
        assert moved.table is not chain.table
        assert write_pdb(Structure("X", (built,))) == write_pdb(
            Structure("X", (chain,)))

    def test_backbone_is_read_only(self):
        chain = parse_pdb((FIXTURES / "chain_a.pdb").read_text()).chains[0]
        xyz, present = backbone_array(chain)
        assert backbone_array(chain)[0] is xyz
        with pytest.raises(ValueError):
            xyz[0, 0, 0] = 1.0
