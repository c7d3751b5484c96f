import dataclasses
import math
import tracemalloc
from itertools import pairwise

import numpy as np
import pytest

from foldkit import gnn
from foldkit.errors import (CoincidentNodes, DegenerateFrame,
                            DimensionMismatch)
from foldkit.featurise import FeatureScheme, build_graph
from foldkit.geometry import GraphTopology, knn_graph
from foldkit.rng import make_rng
from foldkit.synth import random_chain, single_chain_structure

from helpers import (aggregate_oracle, egnn_layer_oracle, gcp_layer_oracle,
                     mlp_forward_oracle, noise_predictor_oracle,
                     random_reflection, random_rotation, schnet_layer_oracle,
                     silu_oracle)


def small_graph(n=12, seed=0, k=4):
    s = single_chain_structure(random_chain(n, make_rng(seed)))
    g = build_graph(s, FeatureScheme.CA_IDENT, k=k)
    return g


def rotate_vecs(V, R):
    return np.einsum("...k,jk->...j", V, R)


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def message_sums(v, topology):
    """Per-node sums of v, one row per stored edge, through the layers'
    message-passing driver."""
    sums, = gnn._message_sums(topology, [v.shape[1:]], lambda ids: (v[ids],))
    return sums


def rows_of(runs):
    """The receiver count of each rank of a tile, from its runs."""
    return np.concatenate([np.full(ranks, rows) for rows, ranks, _ in runs])


class TestMlp:
    def test_zero_weights_pass_bias(self):
        p = gnn.MlpParams((3, 2), (np.zeros((2, 3)),),
                          (np.array([1.0, -2.0]),))
        assert np.array_equal(gnn.mlp_forward(p, np.ones(3)), [1.0, -2.0])

    def test_identity_single_layer(self):
        p = gnn.MlpParams((4, 4), (np.eye(4),), (np.zeros(4),))
        x = make_rng(1).normal(size=4)
        assert np.array_equal(gnn.mlp_forward(p, x), x)

    def test_matches_naive_dot_product_oracle(self):
        rng = make_rng(2)
        p = gnn.seeded_init((5, 7, 3), seed=3)
        for _ in range(50):
            x = rng.normal(size=5)
            z = [sum(W_row[j] * x[j] for j in range(5)) + b
                 for W_row, b in zip(p.weights[0], p.biases[0])]
            h = [v / (1.0 + math.exp(-v)) for v in z]
            y = [sum(W_row[j] * h[j] for j in range(7)) + b
                 for W_row, b in zip(p.weights[1], p.biases[1])]
            assert np.max(np.abs(gnn.mlp_forward(p, x) - y)) < 1e-12

    def test_silu_matches_two_branch_oracle_bit_for_bit(self):
        x = make_rng(7).normal(size=(7040, 32)) * 6.0
        x[0, :8] = [0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, 5e-324, -5e-324]
        got = gnn._activate(x.copy())
        assert np.array_equal(got.view(np.int64), silu_oracle(x).view(np.int64))

    def test_matches_affine_oracle_bit_for_bit(self):
        rng = make_rng(71)
        p = gnn.seeded_init((6, 16, 16, 3), seed=72)
        p = dataclasses.replace(p, biases=tuple(
            rng.normal(size=b.shape) for b in p.biases))
        x = rng.normal(size=(300, 6)) * 4.0
        x[0] = [0.0, -0.0, 800.0, -800.0, 5e-324, -5e-324]
        before = x.copy()
        assert np.array_equal(bits(gnn.mlp_forward(p, x)),
                              bits(mlp_forward_oracle(p, x)))
        assert np.array_equal(bits(gnn.mlp_forward(p, x[7])),
                              bits(mlp_forward_oracle(p, x[7:8])[0]))
        assert np.array_equal(bits(x), bits(before))  # input left alone

    def test_activation_overwrites_its_input(self):
        x = make_rng(73).normal(size=(40, 5))
        expected = silu_oracle(x)
        assert gnn._activate(x) is x
        assert np.array_equal(bits(x), bits(expected))

    def test_dimension_mismatch(self):
        p = gnn.seeded_init((5, 3), seed=4)
        with pytest.raises(DimensionMismatch):
            gnn.mlp_forward(p, np.ones(4))

    def test_batch_consistency(self):
        p = gnn.seeded_init((4, 6, 2), seed=5)
        X = make_rng(6).normal(size=(8, 4))
        batched = gnn.mlp_forward(p, X)
        rows = np.stack([gnn.mlp_forward(p, x) for x in X])
        # batched gemm and row-wise gemv may differ in the last ulp
        assert np.max(np.abs(batched - rows)) < 1e-12


class TestAggregate:
    """The driver's sums against the `np.add.at` scatter they replaced, bit
    for bit: summation order shows in the bits, so values span many orders
    of magnitude."""

    @staticmethod
    def _aggregate(v, dst, n):
        """The sums of v over edges into dst, each from the next node."""
        return message_sums(v, GraphTopology(
            n, np.stack([(dst + 1) % n, dst], axis=1)))

    @staticmethod
    def _values(rng, m, shape):
        v = rng.normal(size=(m,) + shape)
        v *= 10.0 ** rng.integers(-12, 12, size=v.shape)
        v.flat[::5] = -0.0
        return v

    @pytest.mark.parametrize("shape", [(), (1,), (7,), (2, 3)])
    def test_unsorted_repeated_targets(self, shape):
        rng = make_rng(74)
        n = 11
        for m in (0, 1, 5, 60, 400):
            dst = rng.integers(0, n - 3, m)  # the last 3 nodes get nothing
            v = self._values(rng, m, shape)
            got = self._aggregate(v, dst, n)
            assert got.shape == (n,) + shape
            assert np.array_equal(bits(got), bits(aggregate_oracle(v, dst, n)))

    def test_sorted_skewed_and_single_target(self):
        rng = make_rng(75)
        for dst in (np.repeat(np.arange(6), 16), np.zeros(50, dtype=np.int64),
                    np.sort(rng.integers(0, 4, 90)), rng.integers(0, 30, 25)):
            v = self._values(rng, len(dst), (3,))
            assert np.array_equal(bits(self._aggregate(v, dst, 30)),
                                  bits(aggregate_oracle(v, dst, 30)))

    def test_negative_zero_sums_to_positive_zero(self):
        v = np.array([-0.0, -0.0, 1.0, -1.0])
        got = self._aggregate(v, np.array([0, 0, 1, 1]), 3)
        assert np.array_equal(bits(got), bits(np.zeros(3)))
        assert np.array_equal(bits(got), bits(aggregate_oracle(
            v, np.array([0, 0, 1, 1]), 3)))


def _knn_graph_inputs(n, seed):
    g = build_graph(single_chain_structure(random_chain(n, make_rng(seed))),
                    FeatureScheme.CA_SC, k=16)
    S = make_rng(seed + 1).normal(size=g.scalars.shape) + g.scalars
    return S, g.node_vectors, g.coords, g.topology


def _oracle_cases():
    """(S, V, X, topology) by name: ca_sc k = 16 graphs, the n = 100 one
    shuffled, a star, one where half the nodes receive nothing, and one
    without edges."""
    rng = make_rng(83)
    cases = {f"knn{n}": _knn_graph_inputs(n, 84 + n) for n in (100, 440)}
    S, V, X, topo = cases["knn100"]
    n = len(S)
    cases["shuffled"] = (S, V, X, GraphTopology(
        n, topo.edges[rng.permutation(topo.num_edges)]))
    others = np.arange(1, n)
    star = np.concatenate([np.stack([others, np.zeros(n - 1, int)], axis=1),
                           topo.edges[rng.permutation(topo.num_edges)[:300]]])
    cases["star"] = (S, V, X, GraphTopology(n, star[rng.permutation(len(star))]))
    half = topo.edges[topo.edges[:, 1] < n // 2]
    cases["half_receive"] = (S, V, X, GraphTopology(n, half))
    cases["no_edges"] = (S, V, X, GraphTopology(n, np.empty((0, 2), int)))
    return cases


_ORACLE_CASES = _oracle_cases()
_ORACLE_RTOL = 1e-13  # of max |oracle output|; measured up to 6.5e-16


def _close_to_oracle(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= (
        _ORACLE_RTOL * np.max(np.abs(want), initial=0.0))


class TestConcatenatedRowOracles:
    """The per-node first layer and the rank-ordered sums against the
    concatenated-row forward they replaced. The two differ in rounding
    only, so they agree to a relative tolerance, not bit for bit."""

    @pytest.mark.parametrize("case", _ORACLE_CASES)
    def test_egnn_layer(self, case):
        S, _, X, topo = _ORACLE_CASES[case]
        p = gnn.egnn_params(S.shape[1], seed=85)
        for got, want in zip(gnn.egnn_layer(S, X, topo, p),
                             egnn_layer_oracle(S, X, topo, p)):
            _close_to_oracle(got, want)

    @pytest.mark.parametrize("case", _ORACLE_CASES)
    def test_gcp_layer(self, case):
        S, V, X, topo = _ORACLE_CASES[case]
        p = gnn.gcp_params(S.shape[1], seed=86)
        for got, want in zip(gnn.gcp_layer(S, V, X, topo, p),
                             gcp_layer_oracle(S, V, X, topo, p)):
            _close_to_oracle(got, want)

    @pytest.mark.parametrize("case", _ORACLE_CASES)
    def test_noise_predictor(self, case):
        S, _, X, topo = _ORACLE_CASES[case]
        p = gnn.noise_predictor_params(S.shape[1], seed=87)
        _close_to_oracle(gnn.noise_predictor(S, X, topo, p),
                         noise_predictor_oracle(S, X, topo, p))

    @pytest.mark.parametrize("case", ["shuffled", "star"])
    def test_schnet_layer(self, case):
        S, _, X, topo = _ORACLE_CASES[case]
        p = gnn.schnet_params(S.shape[1], seed=88)
        src, dst = topo.edges[:, 0], topo.edges[:, 1]
        filters = gnn.mlp_forward(p.filter_mlp, gnn.rbf_expand(
            np.linalg.norm(X[dst] - X[src], axis=1), p))
        want = S + aggregate_oracle(S[src] * filters, dst, len(S))
        _close_to_oracle(gnn.schnet_layer(S, X, topo, p), want)

    @pytest.mark.parametrize("layer", ["egnn", "gcp", "noise"])
    @pytest.mark.parametrize("params_dim", [5, 7])
    def test_params_width_not_2d_plus_extra(self, layer, params_dim):
        S, V, X, topo = _ORACLE_CASES["knn100"]
        S = S[:, :6]
        run = {"egnn": lambda: gnn.egnn_layer(
                   S, X, topo, gnn.egnn_params(params_dim, seed=89)),
               "gcp": lambda: gnn.gcp_layer(
                   S, V, X, topo, gnn.gcp_params(params_dim, seed=90)),
               "noise": lambda: gnn.noise_predictor(
                   S, X, topo, gnn.noise_predictor_params(params_dim, seed=91))}
        with pytest.raises(DimensionMismatch):
            run[layer]()

    def test_distance_embedding_width_not_score_input(self):
        S, _, X, topo = _ORACLE_CASES["knn100"]
        p = gnn.noise_predictor_params(S.shape[1], seed=92)
        p = dataclasses.replace(p, dist_mlp=gnn.seeded_init((1, 8, 16), seed=93))
        with pytest.raises(DimensionMismatch):
            gnn.noise_predictor(S, X, topo, p)

    def test_gcp_frames_in_stored_edge_order(self):
        _, _, X, topo = _ORACLE_CASES["shuffled"]
        frames = gnn.gcp_frames(X, topo)
        src, dst = topo.edges[:, 0], topo.edges[:, 1]
        rel = X[dst] - X[src]
        cross = np.cross(X[dst], X[src])
        assert np.array_equal(
            frames.a, rel / np.linalg.norm(rel, axis=1)[:, None])
        assert np.array_equal(
            frames.b, cross / np.linalg.norm(cross, axis=1)[:, None])
        assert np.array_equal(frames.c, np.cross(frames.a, frames.b))


class TestSummationOrder:
    @pytest.mark.parametrize("case", _ORACLE_CASES)
    def test_ranks_are_prefixes_in_stored_order(self, case):
        topo = _ORACLE_CASES[case][3]
        dst = topo.edges[:, 1]
        position, tiles = gnn._plan(topo)
        assert np.array_equal(np.sort(position), np.arange(topo.num_nodes))
        degree = np.bincount(position[dst], minlength=topo.num_nodes)
        assert np.all(np.diff(degree) <= 0)  # positions by falling in-degree
        order = np.concatenate([np.empty(0, int)] + [t[0] for t in tiles])
        assert np.array_equal(np.sort(order), np.arange(topo.num_edges))
        for ids, b0, runs in tiles:  # each rank adds into b0, b0 + 1, ...
            rows = rows_of(runs)
            assert list(rows) == sorted(rows, reverse=True)
            assert np.array_equal(position[dst[ids]], np.concatenate(
                [np.arange(b0, b0 + r) for r in rows]))
        for node in range(topo.num_nodes):  # each node's edges in stored order
            mine = order[dst[order] == node]
            assert np.all(np.diff(mine) > 0)

    def test_width_32_any_edge_order_bit_for_bit(self):
        rng = make_rng(94)
        for case in ("knn440", "shuffled", "star", "half_receive"):
            topo = _ORACLE_CASES[case][3]
            dst = topo.edges[:, 1]
            v = rng.normal(size=(len(dst), 32))
            v *= 10.0 ** rng.integers(-12, 12, size=v.shape)
            assert np.array_equal(
                bits(message_sums(v, topo)),
                bits(aggregate_oracle(v, dst, topo.num_nodes)))


def _tile_cases():
    """(S, V, X, topology) by name, each over several tiles: a ca_sc k = 16
    graph of 1 000 nodes, the same shuffled, with every third node receiving
    nothing and a quarter of the other edges dropped (receivers of uneven
    in-degree, empty ones between them), and with a hub that every other
    node sends to three times (3 013 edges, cut along its ranks)."""
    rng = make_rng(95)
    S, V, X, topo = _knn_graph_inputs(1000, 96)
    n = len(S)
    shuffled = topo.edges[rng.permutation(topo.num_edges)]
    gaps = topo.edges[(topo.edges[:, 1] % 3 != 0)
                      & (rng.random(topo.num_edges) < 0.75)]
    into_hub = np.stack([np.tile(np.arange(1, n), 3),
                         np.zeros(3 * (n - 1), int)], axis=1)
    hub = np.concatenate([topo.edges, into_hub])
    return {"knn1000": (S, V, X, topo),
            "shuffled1000": (S, V, X, GraphTopology(n, shuffled)),
            "gaps": (S, V, X, GraphTopology(n, gaps)),
            "hub": (S, V, X, GraphTopology(n, hub[rng.permutation(len(hub))]))}


_TILE_CASES = _tile_cases()


class TestTiles:
    """Each layer runs over tiles of about EDGE_BLOCK edges of the summation
    order; a hub's tiles carry its partial sum from rank to rank."""

    @pytest.mark.parametrize("case", _TILE_CASES)
    def test_tiles_cover_the_order_rank_by_rank(self, case):
        topo = _TILE_CASES[case][3]
        dst = topo.edges[:, 1]
        position, tiles = gnn._plan(topo)
        by_dst = np.argsort(dst, kind="stable")
        rank_of = np.empty(topo.num_edges, int)  # among its receiver's edges
        rank_of[by_dst] = (np.arange(topo.num_edges)
                           - np.searchsorted(dst[by_dst], dst[by_dst]))
        summed = np.zeros(topo.num_nodes, int)  # ranks summed per position
        seen = []
        for ids, b0, runs in tiles:
            counts = [rows for rows, _, _ in runs]  # one per run, falling
            assert counts == sorted(set(counts), reverse=True)
            sizes = [rows * ranks for rows, ranks, _ in runs]
            assert ([at for _, _, at in runs]
                    == np.cumsum([0] + sizes[:-1]).tolist())
            rows = rows_of(runs)
            assert len(ids) == rows.sum() <= 2 * gnn.EDGE_BLOCK
            assert rows[0] > 1 or len(ids) <= gnn.EDGE_BLOCK  # one receiver
            assert np.array_equal(position[dst[ids]], np.concatenate(
                [np.arange(b0, b0 + r) for r in rows]))
            assert np.array_equal(rank_of[ids], np.concatenate(
                [summed[b0:b0 + r] + i for i, r in enumerate(rows)]))
            np.add.at(summed, position[dst[ids]], 1)
            seen.append(ids)
        assert np.array_equal(np.sort(np.concatenate(seen)),
                              np.arange(topo.num_edges))
        assert len(seen) >= topo.num_edges / gnn.EDGE_BLOCK

    def test_hub_is_cut_along_its_ranks(self):
        topo = _TILE_CASES["hub"][3]
        hub_tiles = [rows_of(runs) for _, b0, runs in gnn._plan(topo)[1]
                     if b0 == 0]
        assert [len(rows) for rows in hub_tiles] == [1004, 1004, 1005]
        assert all(np.all(rows == 1) for rows in hub_tiles)

    @pytest.mark.parametrize("case", _TILE_CASES)
    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_sums_bit_for_bit(self, case, shape):
        rng = make_rng(97)
        topo = _TILE_CASES[case][3]
        dst = topo.edges[:, 1]
        v = rng.normal(size=(len(dst),) + shape)
        v *= 10.0 ** rng.integers(-12, 12, size=v.shape)
        assert np.array_equal(
            bits(message_sums(v, topo)),
            bits(aggregate_oracle(v, dst, topo.num_nodes)))

    @pytest.mark.parametrize("case", _TILE_CASES)
    def test_layers_match_oracles(self, case):
        S, V, X, topo = _TILE_CASES[case]
        d = S.shape[1]
        p = gnn.schnet_params(d, seed=98)
        _close_to_oracle(gnn.schnet_layer(S, X, topo, p),
                         schnet_layer_oracle(S, X, topo, p))
        p = gnn.egnn_params(d, seed=99)
        for got, want in zip(gnn.egnn_layer(S, X, topo, p),
                             egnn_layer_oracle(S, X, topo, p)):
            _close_to_oracle(got, want)
        p = gnn.gcp_params(d, seed=100)
        for got, want in zip(gnn.gcp_layer(S, V, X, topo, p),
                             gcp_layer_oracle(S, V, X, topo, p)):
            _close_to_oracle(got, want)
        p = gnn.noise_predictor_params(d, seed=101)
        _close_to_oracle(gnn.noise_predictor(S, X, topo, p),
                         noise_predictor_oracle(S, X, topo, p))

    def test_star_of_20001_nodes(self):
        """One receiver of 20 000 edges: 20 tiles along its ranks, each
        summed in one call."""
        rng = make_rng(102)
        topo = GraphTopology(20_001, np.stack(
            [np.arange(1, 20_001), np.zeros(20_000, int)], axis=1))
        S = rng.normal(size=(20_001, 57))
        X = rng.normal(size=(20_001, 3)) * 30.0
        p = gnn.schnet_params(57, seed=103)
        _close_to_oracle(gnn.schnet_layer(S, X, topo, p),
                         schnet_layer_oracle(S, X, topo, p))

    def test_gcp_memory_is_bounded_by_the_tile(self):
        """At n = 2 000 (32 000 edges) a forward over whole-graph edge arrays
        peaks at 39 MB; over tiles it peaks at 6.4 MB, most of it per node."""
        S, V, X, topo = _knn_graph_inputs(2000, 104)
        p = gnn.gcp_params(S.shape[1], seed=105)
        tracemalloc.start()
        try:
            gnn.gcp_layer(S, V, X, topo, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6


def _layer_outputs(S, V, X, topology):
    d = S.shape[1]
    return [gnn.schnet_layer(S, X, topology, gnn.schnet_params(d, seed=106)),
            *gnn.egnn_layer(S, X, topology, gnn.egnn_params(d, seed=107)),
            *gnn.gcp_layer(S, V, X, topology, gnn.gcp_params(d, seed=108)),
            gnn.noise_predictor(S, X, topology,
                                gnn.noise_predictor_params(d, seed=109))]


class TestPlan:
    """The summation order and its tiles are made on a topology's first
    layer call and kept on it; they depend on its edges alone."""

    def test_four_layers_build_the_plan_once(self, monkeypatch):
        S, V, X, topo = _TILE_CASES["hub"]
        topo = GraphTopology(topo.num_nodes, topo.edges)  # no plan yet
        cuts = []  # the plan cuts its tiles with pairwise, nothing else does
        monkeypatch.setattr(gnn, "pairwise",
                            lambda a: cuts.append(1) or pairwise(a))
        assert "_plan" not in vars(topo)
        d = S.shape[1]
        gnn.schnet_layer(S, X, topo, gnn.schnet_params(d, seed=110))
        plan, built = vars(topo)["_plan"], len(cuts)
        assert built > 0
        gnn.egnn_layer(S, X, topo, gnn.egnn_params(d, seed=111))
        gnn.gcp_layer(S, V, X, topo, gnn.gcp_params(d, seed=112))
        gnn.noise_predictor(S, X, topo,
                            gnn.noise_predictor_params(d, seed=113))
        assert len(cuts) == built
        assert vars(topo)["_plan"] is plan

    @pytest.mark.parametrize("case", ["hub", "gaps"])
    def test_reused_topology_matches_a_fresh_one(self, case):
        S, V, X, topo = _TILE_CASES[case]
        rng = make_rng(114)
        moved = X @ random_rotation(rng).T + 5.0
        _layer_outputs(rng.normal(size=S.shape), V, moved, topo)  # other inputs
        fresh = GraphTopology(topo.num_nodes, topo.edges)
        for reused, new in zip(_layer_outputs(S, V, X, topo),
                               _layer_outputs(S, V, X, fresh)):
            assert np.array_equal(bits(reused), bits(new))

    def test_caller_edits_reach_neither_edges_nor_plan(self):
        S, V, X, topo = _TILE_CASES["shuffled1000"]
        edges = topo.edges.copy()
        mine = GraphTopology(topo.num_nodes, edges)
        _layer_outputs(S, V, X, mine)  # the plan is made here
        edges[:] = edges[::-1, ::-1]  # the caller reuses its array
        assert np.array_equal(mine.edges, topo.edges)
        for got, want in zip(_layer_outputs(S, V, X, mine), _layer_outputs(
                S, V, X, GraphTopology(topo.num_nodes, topo.edges))):
            assert np.array_equal(bits(got), bits(want))
        with pytest.raises(ValueError):
            mine.edges[0, 0] = 1


class TestSeededInit:
    def test_reproducible(self):
        a = gnn.seeded_init((5, 8, 3), seed=42)
        b = gnn.seeded_init((5, 8, 3), seed=42)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_different_seeds_differ(self):
        a = gnn.seeded_init((5, 8, 3), seed=1)
        b = gnn.seeded_init((5, 8, 3), seed=2)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_fan_in_bound(self):
        p = gnn.seeded_init((100, 100), seed=7)
        assert np.max(np.abs(p.weights[0])) < np.sqrt(6.0 / 100)
        assert p.weights[0].size == 10_000


class TestRbf:
    def test_unit_at_center(self):
        p = gnn.schnet_params(4, n_rbf=8, r_max=7.0, seed=10)
        for k, mu in enumerate(p.rbf_centers):
            assert gnn.rbf_expand(mu, p)[k] == pytest.approx(1.0)

    def test_far_distances_vanish(self):
        p = gnn.schnet_params(4, n_rbf=8, r_max=7.0, seed=11)
        assert np.all(gnn.rbf_expand(1e3, p) < 1e-30)

    def test_matches_direct_formula(self):
        p = gnn.schnet_params(4, n_rbf=8, r_max=7.0, seed=12)
        for d in (0.0, 1.7, 5.3):
            expected = [np.exp(-p.rbf_gamma * (d - mu)**2)
                        for mu in p.rbf_centers]
            assert np.max(np.abs(gnn.rbf_expand(d, p) - expected)) < 1e-15


class TestSchnetLayer:
    def test_empty_edges_residual_only(self):
        g = small_graph()
        S = make_rng(13).normal(size=(g.num_nodes, 6))
        p = gnn.schnet_params(6, seed=14)
        topo = GraphTopology(g.num_nodes, np.empty((0, 2), dtype=np.int64))
        assert np.array_equal(gnn.schnet_layer(S, g.coords, topo, p), S)

    def test_all_ones_filter_adds_neighbour(self):
        # two nodes, one edge 0 -> 1; identity-shaped filter mlp forced to 1
        S = np.array([[1.0, 2.0], [10.0, 20.0]])
        X = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        topo = GraphTopology(2, np.array([[0, 1]]))
        n_rbf = 4
        mlp = gnn.MlpParams((n_rbf, 2), (np.zeros((2, n_rbf)),), (np.ones(2),))
        p = gnn.SchNetParams(np.linspace(0, 3, n_rbf), 1.0, mlp)
        out = gnn.schnet_layer(S, X, topo, p)
        assert np.allclose(out[1], S[1] + S[0])
        assert np.allclose(out[0], S[0])

    def test_e3_invariance(self):
        rng = make_rng(15)
        g = small_graph(seed=16)
        S = rng.normal(size=(g.num_nodes, 8))
        p = gnn.schnet_params(8, seed=17)
        base = gnn.schnet_layer(S, g.coords, g.topology, p)
        for _ in range(10):
            R = random_rotation(rng)
            t = rng.normal(size=3) * 10
            moved = gnn.schnet_layer(S, g.coords @ R.T + t, g.topology, p)
            assert np.max(np.abs(moved - base)) / np.max(np.abs(base)) < 1e-9


class TestEgnnLayer:
    def test_zero_gate_keeps_coordinates(self):
        g = small_graph(seed=18)
        rng = make_rng(19)
        S = rng.normal(size=(g.num_nodes, 5))
        p = gnn.egnn_params(5, seed=20)
        zeroed = gnn.MlpParams(
            p.coord_mlp.widths,
            tuple(np.zeros_like(w) for w in p.coord_mlp.weights),
            tuple(np.zeros_like(b) for b in p.coord_mlp.biases))
        import dataclasses
        p0 = dataclasses.replace(p, coord_mlp=zeroed)
        _, X_out = gnn.egnn_layer(S, g.coords, g.topology, p0)
        assert np.array_equal(X_out, g.coords)

    def test_two_node_hand_expansion(self):
        S = np.array([[0.5], [0.25]])
        X = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        topo = GraphTopology(2, np.array([[1, 0]]))  # 1 -> 0
        ones_gate = gnn.MlpParams((3, 1), (np.zeros((1, 3)),), (np.ones(1),))
        p = gnn.EgnnParams(
            message_mlp=gnn.seeded_init((3, 4, 4), seed=21),
            update_mlp=gnn.seeded_init((5, 4, 1), seed=22),
            coord_mlp=ones_gate)
        _, X_out = gnn.egnn_layer(S, X, topo, p)
        assert np.allclose(X_out[0], X[0] + (X[0] - X[1]))
        assert np.allclose(X_out[1], X[1])

    def test_e3_equivariance(self):
        rng = make_rng(23)
        g = small_graph(seed=24)
        S = rng.normal(size=(g.num_nodes, 6))
        p = gnn.egnn_params(6, seed=25)
        S_base, X_base = gnn.egnn_layer(S, g.coords, g.topology, p)
        for _ in range(10):
            R = random_rotation(rng)
            t = rng.normal(size=3) * 10
            S_mov, X_mov = gnn.egnn_layer(S, g.coords @ R.T + t, g.topology, p)
            assert np.max(np.abs(S_mov - S_base)) / np.max(np.abs(S_base)) < 1e-9
            expected = X_base @ R.T + t
            assert np.max(np.abs(X_mov - expected)) / np.max(np.abs(expected)) < 1e-9


class TestGcpFrames:
    def test_axis_aligned_example(self):
        X = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        topo = GraphTopology(2, np.array([[1, 0]]))  # receiver i=0, sender j=1
        fr = gnn.gcp_frames(X, topo)
        assert np.allclose(fr.a[0], np.array([1.0, -1.0, 0.0]) / np.sqrt(2))
        assert np.allclose(fr.b[0], [0.0, 0.0, 1.0])
        assert np.allclose(fr.c[0], np.cross(fr.a[0], fr.b[0]))

    def test_orthonormal(self):
        g = small_graph(seed=26)
        fr = gnn.gcp_frames(g.coords, g.topology)
        for arr in (fr.a, fr.b, fr.c):
            assert np.max(np.abs(np.linalg.norm(arr, axis=1) - 1.0)) < 1e-10
        assert np.max(np.abs(np.einsum("ek,ek->e", fr.a, fr.b))) < 1e-10
        assert np.max(np.abs(np.einsum("ek,ek->e", fr.a, fr.c))) < 1e-10
        assert np.max(np.abs(np.einsum("ek,ek->e", fr.b, fr.c))) < 1e-10
        assert np.max(np.abs(np.cross(fr.a, fr.b) - fr.c)) < 1e-12

    def test_rotation_law(self):
        rng = make_rng(27)
        g = small_graph(seed=28)
        fr = gnn.gcp_frames(g.coords, g.topology)
        for _ in range(10):
            R = random_rotation(rng)
            moved = gnn.gcp_frames(g.coords @ R.T, g.topology)
            assert np.max(np.abs(moved.a - fr.a @ R.T)) < 1e-10
            assert np.max(np.abs(moved.b - fr.b @ R.T)) < 1e-10
            assert np.max(np.abs(moved.c - fr.c @ R.T)) < 1e-10

    def test_reflection_pseudovector_law(self):
        rng = make_rng(29)
        g = small_graph(seed=30)
        fr = gnn.gcp_frames(g.coords, g.topology)
        for _ in range(10):
            M = random_reflection(rng)
            moved = gnn.gcp_frames(g.coords @ M.T, g.topology)
            assert np.max(np.abs(moved.a - fr.a @ M.T)) < 1e-10
            assert np.max(np.abs(moved.b + fr.b @ M.T)) < 1e-10
            assert np.max(np.abs(moved.c - fr.c @ M.T)) < 1e-10

    def test_parallel_positions_degenerate(self):
        X = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        topo = GraphTopology(2, np.array([[0, 1]]))
        with pytest.raises(DegenerateFrame):
            gnn.gcp_frames(X, topo)


class TestGcpLayer:
    def _inputs(self, seed=31):
        g = small_graph(seed=seed)
        rng = make_rng(seed + 1)
        S = rng.normal(size=(g.num_nodes, 6))
        V = g.node_vectors
        return g, S, V

    def test_zero_gates_residual(self):
        g, S, V = self._inputs()
        p = gnn.gcp_params(6, seed=32)

        def zeroed(mlp):
            return gnn.MlpParams(mlp.widths,
                                 tuple(np.zeros_like(w) for w in mlp.weights),
                                 tuple(np.zeros_like(b) for b in mlp.biases))

        p0 = gnn.GcpParams(zeroed(p.message_mlp), zeroed(p.gate_mlp),
                           zeroed(p.node_mlp))
        S_out, V_out = gnn.gcp_layer(S, V, g.coords, g.topology, p0)
        assert np.array_equal(S_out, S)
        assert np.array_equal(V_out, V)

    def test_rotation_about_origin_equivariance(self):
        g, S, V = self._inputs(seed=33)
        p = gnn.gcp_params(6, seed=34)
        S_base, V_base = gnn.gcp_layer(S, V, g.coords, g.topology, p)
        rng = make_rng(35)
        for _ in range(10):
            R = random_rotation(rng)
            S_mov, V_mov = gnn.gcp_layer(S, rotate_vecs(V, R), g.coords @ R.T,
                                         g.topology, p)
            assert np.max(np.abs(S_mov - S_base)) / np.max(np.abs(S_base)) < 1e-9
            assert (np.max(np.abs(V_mov - rotate_vecs(V_base, R)))
                    / np.max(np.abs(V_base)) < 1e-9)

    def test_chirality_sensitivity(self):
        g, S, V = self._inputs(seed=36)
        p = gnn.gcp_params(6, seed=37)
        S_base, _ = gnn.gcp_layer(S, V, g.coords, g.topology, p)
        M = random_reflection(make_rng(38))
        S_mirr, _ = gnn.gcp_layer(S, rotate_vecs(V, M), g.coords @ M.T,
                                  g.topology, p)
        assert np.max(np.abs(S_mirr - S_base)) > 1e-3


class TestNoisePredictor:
    def test_two_node_antisymmetry(self):
        S = np.array([[1.0, 2.0], [1.0, 2.0]])
        X = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        topo = GraphTopology(2, np.array([[0, 1], [1, 0]]))
        p = gnn.noise_predictor_params(2, seed=39)
        eps = gnn.noise_predictor(S, X, topo, p)
        assert np.allclose(eps[0], -eps[1])

    def test_translation_invariance_exact(self):
        g = small_graph(seed=40)
        S = make_rng(41).normal(size=(g.num_nodes, 4))
        p = gnn.noise_predictor_params(4, seed=42)
        # exactly-representable coordinates and offsets: fp sums are exact,
        # so invariance must hold bit-for-bit
        Xq = np.round(g.coords * 1024) / 1024
        base = gnn.noise_predictor(S, Xq, g.topology, p)
        for t in ([1.0, -2.0, 0.5], [16.25, 3.75, -8.0]):
            shifted = gnn.noise_predictor(S, Xq + np.array(t), g.topology, p)
            assert np.array_equal(shifted, base)

    def test_rotation_equivariance(self):
        rng = make_rng(43)
        g = small_graph(seed=44)
        S = rng.normal(size=(g.num_nodes, 4))
        p = gnn.noise_predictor_params(4, seed=45)
        base = gnn.noise_predictor(S, g.coords, g.topology, p)
        for _ in range(10):
            R = random_rotation(rng)
            moved = gnn.noise_predictor(S, g.coords @ R.T, g.topology, p)
            assert np.max(np.abs(moved - base @ R.T)) / np.max(np.abs(base)) < 1e-9

    def test_coincident_nodes_raise(self):
        S = np.zeros((2, 4))
        X = np.zeros((2, 3))
        topo = GraphTopology(2, np.array([[0, 1]]))
        p = gnn.noise_predictor_params(4, seed=46)
        with pytest.raises(CoincidentNodes):
            gnn.noise_predictor(S, X, topo, p)


class TestPerNodeInputs:
    def _inputs(self, seed=76):
        g = small_graph(seed=seed)
        S = make_rng(seed + 1).normal(size=(g.num_nodes, 6))
        return g, S, g.node_vectors, g.coords

    @staticmethod
    def _layers():
        schnet, egnn = gnn.schnet_params(6, seed=78), gnn.egnn_params(6, seed=79)
        gcp = gnn.gcp_params(6, seed=80)
        noise = gnn.noise_predictor_params(6, seed=81)
        return {
            "schnet": lambda S, V, X, t: gnn.schnet_layer(S, X, t, schnet),
            "egnn": lambda S, V, X, t: gnn.egnn_layer(S, X, t, egnn),
            "gcp": lambda S, V, X, t: gnn.gcp_layer(S, V, X, t, gcp),
            "noise": lambda S, V, X, t: gnn.noise_predictor(S, X, t, noise)}

    @pytest.mark.parametrize("layer, short", [
        (layer, short) for layer in ("schnet", "egnn", "noise") for short in "SX"]
        + [("gcp", short) for short in "SVX"])
    def test_short_input_is_dimension_mismatch(self, layer, short):
        g, S, V, X = self._inputs()
        inputs = {"S": S, "V": V, "X": X}
        inputs[short] = inputs[short][:-1]
        with pytest.raises(DimensionMismatch):
            self._layers()[layer](inputs["S"], inputs["V"], inputs["X"],
                                  g.topology)

    def test_zero_edges_send_no_message(self):
        g, S, V, X = self._inputs(seed=82)
        S[0, 0] = -0.0  # a zero sum is added, as in schnet_layer_oracle
        n = g.num_nodes
        topo = GraphTopology(n, np.empty((0, 2), dtype=np.int64))
        out = {name: run(S, V, X, topo)
               for name, run in self._layers().items()}
        egnn, gcp = gnn.egnn_params(6, seed=79), gnn.gcp_params(6, seed=80)
        assert np.array_equal(bits(out["schnet"]), bits(S + 0.0))
        assert np.array_equal(bits(out["egnn"][0]), bits(gnn.mlp_forward(
            egnn.update_mlp, np.concatenate([S, np.zeros((n, 32))], axis=1))))
        assert np.array_equal(bits(out["egnn"][1]), bits(X + 0.0))
        assert np.array_equal(bits(out["gcp"][0]), bits(S + gnn.mlp_forward(
            gcp.node_mlp, np.concatenate([S, np.zeros((n, 6))], axis=1))))
        assert np.array_equal(bits(out["gcp"][1]), bits(V + 0.0))
        assert np.array_equal(bits(out["noise"]), bits(np.zeros((n, 3))))


class TestStackedComposition:
    def test_three_layer_egnn_keeps_equivariance(self):
        rng = make_rng(47)
        g = small_graph(seed=48)
        S = rng.normal(size=(g.num_nodes, 6))
        params = [gnn.egnn_params(6, seed=50 + i) for i in range(3)]

        def run(S0, X0):
            for p in params:
                S0, X0 = gnn.egnn_layer(S0, X0, g.topology, p)
            return S0, X0

        S_base, X_base = run(S, g.coords)
        R = random_rotation(rng)
        t = rng.normal(size=3) * 5
        S_mov, X_mov = run(S, g.coords @ R.T + t)
        assert np.max(np.abs(S_mov - S_base)) / np.max(np.abs(S_base)) < 1e-9
        assert (np.max(np.abs(X_mov - (X_base @ R.T + t)))
                / np.max(np.abs(X_base)) < 1e-9)

    def test_three_layer_schnet_keeps_invariance(self):
        rng = make_rng(60)
        g = small_graph(seed=61)
        S = rng.normal(size=(g.num_nodes, 6))
        params = [gnn.schnet_params(6, seed=62 + i) for i in range(3)]

        def run(X0):
            S0 = S
            for p in params:
                S0 = gnn.schnet_layer(S0, X0, g.topology, p)
            return S0

        base = run(g.coords)
        R = random_rotation(rng)
        moved = run(g.coords @ R.T + rng.normal(size=3) * 7)
        assert np.max(np.abs(moved - base)) / np.max(np.abs(base)) < 1e-9

    def test_purity_bit_identical(self):
        g = small_graph(seed=51)
        S = make_rng(52).normal(size=(g.num_nodes, 6))
        p = gnn.egnn_params(6, seed=53)
        a = gnn.egnn_layer(S, g.coords, g.topology, p)
        b = gnn.egnn_layer(S, g.coords, g.topology, p)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
