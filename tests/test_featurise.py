import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldkit.errors import (DegenerateGeometry, DimensionMismatch, MissingAtom,
                            MalformedRecord, OddDimension, BadMagic,
                            TruncatedPayload, VersionMismatch, FoldkitError)
from foldkit.featurise import (FeatureScheme, build_graph, embed_angle,
                               positional_encoding, scalar_features,
                               vector_features)
from foldkit.geometry import GraphTopology, knn_graph, edges_from_text, edges_to_text
from foldkit.residues import RESIDUE_INDEX, VOCAB_SIZE
from foldkit.rng import make_rng
from foldkit.structure import Atom, Chain, Residue, Structure
from foldkit.synth import random_chain, single_chain_structure
from foldkit.tensorio import tensor_from_bytes, tensor_to_bytes

from helpers import (dihedral_oracle, edges_from_text_oracle,
                     edges_to_text_oracle, random_rotation,
                     transform_structure, with_atom)


class TestPositionalEncoding:
    def test_index_zero_alternates(self):
        pe = positional_encoding(0)
        assert np.array_equal(pe, np.tile([0.0, 1.0], 8))

    def test_index_one_slot_zero(self):
        assert positional_encoding(1)[0] == pytest.approx(np.sin(1.0))

    def test_formula_direct_evaluation(self):
        idx, dim = 37, 16
        pe = positional_encoding(idx, dim)
        for k in range(dim // 2):
            rate = idx / 10000.0 ** (2.0 * k / dim)
            assert pe[2 * k] == pytest.approx(np.sin(rate))
            assert pe[2 * k + 1] == pytest.approx(np.cos(rate))

    def test_bounded(self):
        for idx in (0, 1, 999, 123456):
            assert np.all(np.abs(positional_encoding(idx)) <= 1.0)

    def test_odd_dimension_rejected(self):
        with pytest.raises(OddDimension):
            positional_encoding(3, dim=7)


class TestEmbedAngle:
    def test_zero(self):
        assert embed_angle(0.0) == (0.0, 1.0)

    def test_right_angle(self):
        s, c = embed_angle(np.pi / 2)
        assert s == pytest.approx(1.0)
        assert c == pytest.approx(0.0, abs=1e-15)

    def test_undefined_off_circle(self):
        assert embed_angle(None) == (0.0, 0.0)


def _ca_only_structure(res_types, positions, chain_id="A"):
    residues = tuple(
        Residue(t, i + 1, None,
                (Atom("CA", "C", np.asarray(p, dtype=float), serial=i + 1),))
        for i, (t, p) in enumerate(zip(res_types, positions)))
    return Structure("TST", (Chain(chain_id, residues),))


class TestScalarFeatures:
    def test_ident_is_pure_one_hot(self):
        s = _ca_only_structure(["ALA"] * 5,
                               [(i * 3.8, 0, 0) for i in range(5)])
        S = scalar_features(s, FeatureScheme.CA_IDENT)
        assert S.shape == (5, 23)
        expected = np.zeros((5, 23))
        expected[:, RESIDUE_INDEX["ALA"]] = 1.0
        assert np.array_equal(S, expected)

    def test_scheme_dimensions(self):
        s = single_chain_structure(random_chain(12, make_rng(1)))
        dims = {FeatureScheme.CA_IDENT: 23, FeatureScheme.CA_SEQ: 39,
                FeatureScheme.CA_ANGLES: 43, FeatureScheme.CA_BB: 49,
                FeatureScheme.CA_SC: 57}
        for scheme, d in dims.items():
            assert scheme.dim == d
            assert scalar_features(s, scheme).shape == (12, d)

    def test_glycine_chi_block_zero(self):
        chain = random_chain(6, make_rng(2))
        import dataclasses
        residues = tuple(dataclasses.replace(r, res_type="GLY")
                         for r in chain.residues)
        s = single_chain_structure(dataclasses.replace(chain, residues=residues))
        S = scalar_features(s, FeatureScheme.CA_SC)
        assert np.array_equal(S[:, 49:57], np.zeros((6, 8)))

    def test_no_nans_anywhere(self):
        s = single_chain_structure(random_chain(15, make_rng(3)))
        for scheme in FeatureScheme:
            assert np.all(np.isfinite(scalar_features(s, scheme)))

    def test_missing_backbone_raises_for_bb_scheme(self):
        s = _ca_only_structure(["ALA"] * 4,
                               [(0, 0, 0), (3.8, 1, 0), (7.6, 0, 1), (11.4, 1, 1)])
        with pytest.raises(MissingAtom):
            scalar_features(s, FeatureScheme.CA_BB)

    def test_collinear_trace_alpha_embeds_as_zero(self):
        s = _ca_only_structure(["ALA"] * 4, [(i * 3.8, 0, 0) for i in range(4)])
        S = scalar_features(s, FeatureScheme.CA_ANGLES)
        # kappa = pi embeds as (0, -1); alpha undefined embeds as (0, 0)
        assert np.allclose(S[1, 39:41], [0.0, -1.0], atol=1e-12)
        assert np.array_equal(S[1, 41:43], [0.0, 0.0])
        # a collinear window mid-trace: only the two windows holding it go
        trace = np.random.default_rng(20).normal(size=(8, 3)) * 4.0
        trace[4] = 0.5 * (trace[3] + trace[5])
        S = scalar_features(_ca_only_structure(["ALA"] * 8, trace),
                            FeatureScheme.CA_ANGLES)
        assert np.array_equal(S[3:5, 41:43], np.zeros((2, 2)))
        for i in (1, 2, 5):
            alpha = dihedral_oracle(*trace[i - 1:i + 3])
            assert np.allclose(S[i, 41:43], [np.sin(alpha), np.cos(alpha)],
                               atol=1e-12)

    def test_collinear_chi_atoms_raise_for_sc_scheme(self):
        chain = random_chain(5, make_rng(22))
        res = chain.residues[2]
        n, ca = res.atom("N").position, res.atom("CA").position
        cb = ca + 1.53 * (ca - n) / np.linalg.norm(ca - n)  # N, CA, CB collinear
        chain = with_atom(with_atom(chain, 2, "CB", cb), 2, "SG",
                          cb + np.array([0.0, 0.0, 1.8]))
        chain = dataclasses.replace(chain, residues=tuple(
            dataclasses.replace(r, res_type="CYS") if i == 2 else r
            for i, r in enumerate(chain.residues)))
        s = single_chain_structure(chain)
        assert scalar_features(s, FeatureScheme.CA_BB).shape == (5, 49)
        with pytest.raises(DegenerateGeometry):
            scalar_features(s, FeatureScheme.CA_SC)

    def test_positional_encoding_restarts_per_chain(self):
        s1 = _ca_only_structure(["ALA"] * 3, [(i * 3.8, 0, 0) for i in range(3)])
        two = Structure("TST", (s1.chains[0],
                                Chain("B", s1.chains[0].residues)))
        S = scalar_features(two, FeatureScheme.CA_SEQ)
        assert np.array_equal(S[0, 23:39], S[3, 23:39])
        S_global = scalar_features(two, FeatureScheme.CA_SEQ,
                                   global_positions=True)
        assert not np.array_equal(S_global[0, 23:39], S_global[3, 23:39])

    def test_rigid_motion_invariance(self):
        rng = make_rng(4)
        s = single_chain_structure(random_chain(20, rng))
        for scheme in (FeatureScheme.CA_ANGLES, FeatureScheme.CA_BB,
                       FeatureScheme.CA_SC):
            S = scalar_features(s, scheme)
            moved = transform_structure(s, random_rotation(rng),
                                        rng.normal(size=3) * 9.0)
            S2 = scalar_features(moved, scheme)
            assert np.max(np.abs(S - S2)) < 1e-9


class TestVectorFeatures:
    def test_collinear_trace_orientations(self):
        s = _ca_only_structure(["ALA"] * 3, [(0, 0, 0), (1, 0, 0), (2, 0, 0)])
        topo = knn_graph([(0, 0, 0), (1, 0, 0), (2, 0, 0)], 1)
        node_vec, edge_vec = vector_features(s, topo)
        assert np.allclose(node_vec[1, 0], [-1, 0, 0])
        assert np.allclose(node_vec[1, 1], [1, 0, 0])
        assert np.array_equal(node_vec[0, 0], [0, 0, 0])
        assert np.array_equal(node_vec[2, 1], [0, 0, 0])

    def test_edge_vectors_point_source_to_target(self):
        s = _ca_only_structure(["ALA"] * 2, [(0, 0, 0), (2, 0, 0)])
        topo = GraphTopology(2, np.array([[0, 1]]))
        _, edge_vec = vector_features(s, topo)
        assert np.allclose(edge_vec[0], [1, 0, 0])

    def test_unit_or_zero(self):
        s = single_chain_structure(random_chain(20, make_rng(5)))
        g = build_graph(s, FeatureScheme.CA_IDENT, k=4)
        norms = np.linalg.norm(g.node_vectors, axis=-1)
        assert np.all((np.abs(norms - 1) < 1e-12) | (norms == 0.0))
        assert np.allclose(np.linalg.norm(g.edge_vectors, axis=-1), 1.0)

    def test_coincident_cas_raise(self):
        s = _ca_only_structure(["ALA"] * 2, [(0, 0, 0), (0, 0, 0)])
        topo = GraphTopology(2, np.array([[0, 1]]))
        with pytest.raises(DegenerateGeometry):
            vector_features(s, topo)


class TestBuildGraph:
    def test_k16_in_degree(self):
        s = single_chain_structure(random_chain(20, make_rng(6)))
        g = build_graph(s, FeatureScheme.CA_IDENT, k=16)
        counts = np.bincount(g.topology.edges[:, 1], minlength=20)
        assert np.all(counts == 16)

    def test_scalars_invariant_vectors_equivariant(self):
        rng = make_rng(7)
        s = single_chain_structure(random_chain(20, rng))
        g = build_graph(s, FeatureScheme.CA_BB, k=8)
        R = random_rotation(rng)
        t = rng.normal(size=3) * 5.0
        g2 = build_graph(transform_structure(s, R, t), FeatureScheme.CA_BB, k=8)
        assert np.array_equal(g.topology.edges, g2.topology.edges)
        assert np.max(np.abs(g.scalars - g2.scalars)) < 1e-9
        assert np.max(np.abs(g2.node_vectors
                             - np.einsum("nvk,jk->nvj", g.node_vectors, R))) < 1e-9
        assert np.max(np.abs(g2.edge_vectors - g.edge_vectors @ R.T)) < 1e-9

    def test_one_warning_for_a_ca_less_residue(self, caplog):
        chain = random_chain(10, make_rng(23))
        res = chain.residues[4]
        chain = dataclasses.replace(chain, residues=(
            chain.residues[:4]
            + (dataclasses.replace(res, atoms=tuple(
                a for a in res.atoms if a.name != "CA")),)
            + chain.residues[5:]))
        with caplog.at_level(logging.WARNING, logger="foldkit"):
            g = build_graph(single_chain_structure(chain, "1ABC"),
                            FeatureScheme.CA_SC, k=4)
        assert g.num_nodes == 9
        assert len(caplog.records) == 1
        assert "1ABC" in caplog.records[0].getMessage()

    def test_mis_shaped_graph_raises(self):
        g = build_graph(single_chain_structure(random_chain(6, make_rng(24))),
                        FeatureScheme.CA_BB, k=3)
        for bad in ({"coords": g.coords[:-1]}, {"scalars": g.scalars[:, :-1]},
                    {"node_vectors": g.node_vectors[:, :1]},
                    {"edge_vectors": g.edge_vectors[1:]},
                    {"res_types": g.res_types[:-1]}):
            with pytest.raises(DimensionMismatch):
                dataclasses.replace(g, **bad)
        scalars = g.scalars.copy()
        scalars[0, 0] = np.nan
        with pytest.raises(DegenerateGeometry):
            dataclasses.replace(g, scalars=scalars)
        with pytest.raises(DegenerateGeometry):
            dataclasses.replace(g, node_vectors=2.0 * g.node_vectors)
        for edges in ([[0, 1, 2], [3, 4, 5]], [[0, 1, 2]], [0, 1],
                      np.zeros((2, 2, 2))):
            with pytest.raises(DimensionMismatch):
                GraphTopology(6, edges)
        for edges in ([[0, -1]], [[6, 0]]):  # ids outside 0..num_nodes-1
            with pytest.raises(DegenerateGeometry):
                GraphTopology(6, edges)

    def test_metadata_aligned(self):
        s = single_chain_structure(random_chain(10, make_rng(8)))
        g = build_graph(s, FeatureScheme.CA_IDENT, k=3)
        assert len(g.res_types) == 10
        assert g.chain_ids == ("A",)
        assert np.all(g.chain_index == 0)


class TestEdgeTextFormat:
    def test_round_trip(self):
        topo = knn_graph(make_rng(9).normal(size=(10, 3)), 3)
        back = edges_from_text(edges_to_text(topo), num_nodes=10)
        assert np.array_equal(topo.edges, back.edges)

    def test_matches_oracle_on_random_topologies(self):
        rng = make_rng(31)
        topologies = [GraphTopology(0, []),  # empty, and two ids of a million
                      GraphTopology(10**6, [[0, 999999], [999999, 0]])]
        for n, m in ((2, 0), (5, 0), (2, 1), (7, 30), (60, 400), (3000, 50)):
            src = rng.integers(0, n, m)
            dst = (src + rng.integers(1, n, m)) % n  # no self-loops
            topologies.append(  # unsorted
                GraphTopology(n, np.stack((src, dst), axis=1)))
        for topo in topologies:
            text = edges_to_text(topo)
            assert text == edges_to_text_oracle(topo)
            back = edges_from_text(text, num_nodes=topo.num_nodes)
            assert back.edges.shape == topo.edges.shape
            assert np.array_equal(back.edges, topo.edges)

    @pytest.mark.parametrize("text, line_no", [
        ("1\t2\t3\n", 1), ("0\t1\n\na\tb\n", 3), ("0\t1\n1 2\n", 2),
        ("99999999999999999999\t1\n", 1),
        ("0\t1\n1\t-9223372036854775809\n", 2),
        ("0\t1\n2\t9223372036854775808\n", 2),
        ("0\t1\n-9223372036854775809\t0\n", 2),
        ("0\t1\n0\t1\n99999999999999999999999\t2\n", 3)])
    def test_malformed_line_raises_typed_error(self, text, line_no):
        with pytest.raises(MalformedRecord) as err:
            edges_from_text(text)
        assert err.value.line_no == line_no

    @pytest.mark.parametrize("text", [
        "9223372036854775807\t1\n", "0\t1\n2\t1234567890123456789\n",
        "1000000000000000000\t999999999999999999\n",
        "000000000000000000007\t1\n"])
    def test_integers_past_18_digits_read_exactly(self, text):
        edges = edges_from_text(text).edges
        assert edges.dtype == np.int64
        assert edges.tolist() == edges_from_text_oracle(text).tolist()


_EDGE_NOISE = "0123456789-+_ \t\r\n\u0663"  # U+0663: ARABIC-INDIC DIGIT THREE
_EDGE_BOUNDS = (-2**64, -2**63 - 1, -2**63, 2**63 - 1, 2**63, 2**64)


@st.composite
def _edge_texts(draw):
    """edges_to_text() output, mostly of small node indices, some at and
    past the int64 bounds, often with a few noise strings inserted (signs,
    underscores, spaces, stray tabs, CR, blank lines, a Unicode digit),
    each in place of one character or between two."""
    def index():
        if draw(st.integers(0, 7)):
            return draw(st.integers(0, 40))
        return draw(st.sampled_from(_EDGE_BOUNDS))
    text = "".join(f"{index()}\t{index()}\n"
                   for _ in range(draw(st.integers(0, 6))))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        noise = st.sampled_from(["\n", " ", "\r", "+", "_", "\u0663"])
        text = (text[:at] + draw(noise | st.text(_EDGE_NOISE, max_size=3))
                + text[at + draw(st.integers(0, 1)):])
    return text


def _edge_outcome(read):
    try:
        topology = read()
    except FoldkitError as exc:
        return type(exc), getattr(exc, "line_no", None), str(exc)
    return topology.num_nodes, topology.edges.tolist()


class TestEdgeTextReader:
    """The bulk reader of canonical text and the per-line reader of all
    other text must agree with the per-line oracle on every input."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_edge_texts(), st.text(_EDGE_NOISE, max_size=30)))
    def test_matches_per_line_oracle(self, text):
        def oracle():
            edges = edges_from_text_oracle(text)
            return GraphTopology(int(edges.max()) + 1 if len(edges) else 0,
                                 edges)
        assert _edge_outcome(lambda: edges_from_text(text)) == \
            _edge_outcome(oracle)

    @pytest.mark.parametrize("text", [
        "0\t1\n1\t\u06632\n", " 0\t1 \n\n\r\n+1\t2_0\n", "0\t1\n1\t2"])
    def test_non_canonical_text_reads_line_by_line(self, text):
        assert np.array_equal(edges_from_text(text).edges,
                              edges_from_text_oracle(text))


class TestTensorContainer:
    def test_round_trip_preserves_shape_and_values(self):
        rng = make_rng(10)
        for shape in ((5,), (4, 7), (3, 2, 3)):
            arr = rng.normal(size=shape).astype(np.float32).astype(np.float64)
            back = tensor_from_bytes(tensor_to_bytes(arr))
            assert back.shape == shape
            assert np.array_equal(back, arr)

    def test_header_layout(self):
        payload = tensor_to_bytes(np.zeros((2, 3)))
        assert payload[:4] == b"FKT1"
        assert payload[4] == 2
        assert int.from_bytes(payload[5:9], "little") == 2
        assert int.from_bytes(payload[9:13], "little") == 3
        assert len(payload) == 13 + 4 * 6

    def test_rank_outside_range_raises(self):
        for array in (3.0, np.zeros((1,) * 9)):
            with pytest.raises(DimensionMismatch):
                tensor_to_bytes(array)
        for rank in (0, 9):
            with pytest.raises(VersionMismatch):
                tensor_from_bytes(b"FKT1" + bytes([rank]) + bytes(40))

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            tensor_from_bytes(b"NOPE" + bytes(20))

    def test_truncated(self):
        payload = tensor_to_bytes(np.zeros(4))
        with pytest.raises(TruncatedPayload):
            tensor_from_bytes(payload[:-3])
        payload = tensor_to_bytes(np.zeros((2, 3)))
        for length in range(len(payload)):  # short magic, rank, dims, data
            with pytest.raises(TruncatedPayload):
                tensor_from_bytes(payload[:length])
