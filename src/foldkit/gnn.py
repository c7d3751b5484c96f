"""Forward-pass message-passing kernels, double precision, no training.

Edges follow the graph module's (source, target) storage; the target is
the receiving node, so relative geometry uses x_target - x_source. All
functions are pure: identical inputs and params give bit-identical
outputs. Each node's incoming messages are summed in stored-edge order,
starting from 0.0, so outputs do not depend on how the scatter runs. One
driver runs every layer's edge work in tiles of about EDGE_BLOCK edges, so
no array spans all edges: a tile is a range of receivers and of their ranks
(a node's r-th stored edge has rank r), and a receiver of more edges is
split along its ranks, its partial sum carried from tile to tile. The order
and tiles are made once per topology and kept on it. An edge MLP's first
layer is applied to the endpoint features once per node and gathered per
edge: outputs differ from a forward over concatenated edge rows in the
last bits only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .errors import (CoincidentNodes, DegenerateConfiguration,
                     DegenerateFrame, DimensionMismatch, shaped_array)
from .geometry import GraphTopology
from .rng import make_rng

_EPS = 1e-12
EDGE_BLOCK = 1024  # edges per tile of message passing


def _activate(x: np.ndarray) -> np.ndarray:
    """Overwrite x with its SiLU and return it: x exp(min(x, 0)) /
    (1 + exp(-|x|)), with no mask and no positive exponent to overflow."""
    num = np.minimum(x, 0.0)
    num = np.multiply(np.exp(num, out=num), x, out=num)
    den = np.exp(np.negative(np.abs(x, out=x), out=x), out=x)
    den += 1.0
    return np.divide(num, den, out=x)


@dataclass(frozen=True)
class MlpParams:
    """Affine layers with SiLU between them; the final layer is linear."""
    widths: tuple            # (in, hidden..., out)
    weights: tuple           # (out_i, in_i) arrays
    biases: tuple            # (out_i,) arrays

    @property
    def in_dim(self) -> int:
        return self.widths[0]

    @property
    def out_dim(self) -> int:
        return self.widths[-1]


def seeded_init(widths, seed: int = 0) -> MlpParams:
    """Deterministic fan-in-scaled uniform init: |w| < sqrt(6 / fan_in),
    biases zero. Identical across platforms for a given seed."""
    widths = tuple(int(w) for w in widths)
    if len(widths) < 2 or any(w < 1 for w in widths):
        raise DimensionMismatch(f"bad widths {widths}")
    rng = make_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpParams(widths, tuple(weights), tuple(biases))


def mlp_forward(p: MlpParams, x) -> np.ndarray:
    """Apply the MLP to a vector (in_dim,) or a batch of row vectors
    (m, in_dim); DimensionMismatch otherwise."""
    x = shaped_array(x, None, "x")
    squeeze = x.ndim == 1
    x = shaped_array(x[None] if squeeze else x, (None, p.in_dim), "x")
    last = len(p.weights) - 1
    for i, (W, b) in enumerate(zip(p.weights, p.biases)):
        x = x @ W.T  # a new array, so the caller's x is never written
        x += b
        if i != last:
            _activate(x)
    return x[0] if squeeze else x


def _node_arrays(topology: GraphTopology, **arrays) -> list:
    """The per-node inputs as float64 arrays of one row per graph node:
    S (n, d), X (n, 3) and V (n, v, 3); DimensionMismatch otherwise."""
    n = topology.num_nodes
    shapes = {"S": (n, None), "X": (n, 3), "V": (n, None, 3)}
    return [shaped_array(a, shapes[name], name) for name, a in arrays.items()]


def _edge_geometry(X: np.ndarray, edges: np.ndarray):
    """Distances and receiver-minus-sender difference vectors per edge."""
    src = edges[:, 0]
    dst = edges[:, 1]
    diff = X[dst] - X[src]
    dist = np.linalg.norm(diff, axis=1)
    return src, dst, diff, dist


def _plan(topology: GraphTopology):
    """(position, tiles) of the summation order, made on first use and kept
    on the topology, whose edges are read-only. Edges go by rank (a node's
    r-th stored edge has rank r), then by receiver position in the nodes
    stably sorted by falling in-degree. A tile, (edge ids, b0, runs), holds
    about EDGE_BLOCK edges of that order; in a run (rows, ranks, at), each
    rank adds rows values, read from at on, into positions b0, b0 + 1, ...
    Positions are cut into near-equal ranges of cumulative in-degree, and a
    range of more than EDGE_BLOCK edges (a hub) along its ranks."""
    if "_plan" in topology.__dict__:
        return topology.__dict__["_plan"]
    dst, n = topology.edges[:, 1], topology.num_nodes
    by_dst = np.argsort(dst, kind="stable")
    first = np.searchsorted(dst[by_dst], np.arange(n + 1))  # runs in by_dst
    degree = np.diff(first)
    position = np.argsort(np.argsort(-degree, kind="stable"))
    rank = np.arange(len(dst)) - np.repeat(first[:-1], degree)
    order = by_dst[np.argsort(rank * n + np.repeat(position, degree))]
    degree = -np.sort(-degree)  # by position
    counts = np.searchsorted(-degree, -np.arange(degree[:1].sum()))
    start = np.cumsum(counts) - counts  # of each rank in the order
    ends = np.concatenate([[0], np.cumsum(degree)])  # in-degree before
    parts = max(1, -(-ends[-1] // EDGE_BLOCK))
    bounds = np.searchsorted(ends, np.arange(parts + 1) * ends[-1] // parts)
    tiles = []
    for b0, b1 in pairwise(np.unique(bounds)):
        parts = -(-(ends[b1] - ends[b0]) // EDGE_BLOCK)
        for r0, r1 in pairwise(np.arange(parts + 1) * degree[b0] // parts):
            rows = np.minimum(counts[r0:r1], b1) - b0
            at = np.cumsum(rows) - rows  # of each rank in the tile
            ids = order[np.repeat(start[r0:r1] + b0 - at, rows)
                        + np.arange(rows.sum())]
            run = np.flatnonzero(np.diff(rows, prepend=0))  # of equal rows
            runs = zip(rows[run], np.diff(run, append=len(rows)), at[run])
            tiles.append((ids, int(b0), [tuple(map(int, r)) for r in runs]))
    topology.__dict__["_plan"] = position, tiles
    return position, tiles


def _tile_sum(sums: np.ndarray, values: np.ndarray, tile) -> None:
    """Add one tile's values, given rank by rank, into its rows of sums: each
    row adds its values in rank order to its sum so far (0.0 at first)."""
    _, b0, runs = tile
    for rows, ranks, at in runs:
        total = sums[b0:b0 + rows]
        block = values[at:at + rows * ranks].reshape((ranks,) + total.shape)
        stack = np.concatenate([total[None], block])  # sum so far, then ranks
        if total.size == 1:  # numpy reduces into a single element pairwise
            total[...] = np.add.accumulate(stack)[-1]
        else:  # in order along axis 0
            np.add.reduce(stack, axis=0, out=total)


def _message_sums(topology: GraphTopology, shapes, messages) -> list:
    """Per-node sums, (n, *shape) per shape, of the per-edge arrays that
    messages(edge_ids) returns per tile, in stored-edge order from 0.0."""
    position, tiles = _plan(topology)
    sums = [np.zeros((len(position),) + tuple(shape)) for shape in shapes]
    for tile in tiles:
        for total, values in zip(sums, messages(tile[0])):
            _tile_sum(total, values, tile)
    return [total[position] for total in sums]


def _edge_mlp(p: MlpParams, S: np.ndarray, extra: int):
    """p on the edge rows [S[dst], S[src], per_edge] of 2d + extra columns,
    as a function of (src, dst, per_edge): the S blocks of the first layer
    are applied once per node here and gathered per edge."""
    d = S.shape[1]
    if p.in_dim != 2 * d + extra:
        raise DimensionMismatch(f"edge MLP input dim {p.in_dim} != 2d + extra")
    W = p.weights[0]
    to_dst, to_src = S @ W[:, :d].T + p.biases[0], S @ W[:, d:2 * d].T
    rest = MlpParams(p.widths[1:], p.weights[1:], p.biases[1:])

    def forward(src, dst, per_edge):
        x = to_dst[dst]
        x += to_src[src]
        x += per_edge @ W[:, 2 * d:].T
        return mlp_forward(rest, _activate(x) if rest.weights else x)
    return forward


@dataclass(frozen=True)
class SchNetParams:
    """Radial filter: Gaussian RBF expansion feeding filter_mlp, whose
    output gates neighbour features element-wise."""
    rbf_centers: np.ndarray   # strictly increasing, Å
    rbf_gamma: float          # 1 / Å^2
    filter_mlp: MlpParams     # len(rbf_centers) -> feature dim


def schnet_params(feature_dim: int, hidden: int = 32, n_rbf: int = 16,
                  r_max: float = 12.0, seed: int = 0) -> SchNetParams:
    if n_rbf < 2 or not 0 < r_max < np.inf:
        raise DegenerateConfiguration(
            f"need n_rbf >= 2 and finite r_max > 0, got {n_rbf}, {r_max}")
    centers = np.linspace(0.0, r_max, n_rbf)
    gamma = 1.0 / (centers[1] - centers[0])**2
    mlp = seeded_init((n_rbf, hidden, feature_dim), seed=seed)
    return SchNetParams(centers, gamma, mlp)


def rbf_expand(d, p: SchNetParams) -> np.ndarray:
    """g_k = exp(-gamma * (d - mu_k)^2); accepts a scalar or a batch."""
    d = shaped_array(d, None, "d")
    return np.exp(-p.rbf_gamma * (d[..., None] - p.rbf_centers)**2)


def schnet_layer(S, X, topology: GraphTopology, p: SchNetParams) -> np.ndarray:
    """s'_i = s_i + sum_j s_j * filter(||x_i - x_j||), invariant to E(3)."""
    S, X = _node_arrays(topology, S=S, X=X)
    if p.filter_mlp.out_dim != S.shape[1]:
        raise DimensionMismatch("filter output dim != feature dim")

    def messages(ids):
        src, _, _, dist = _edge_geometry(X, topology.edges[ids])
        filters = mlp_forward(p.filter_mlp, rbf_expand(dist, p))
        return np.multiply(S[src], filters, out=filters),
    return S + _message_sums(topology, [S.shape[1:]], messages)[0]


@dataclass(frozen=True)
class EgnnParams:
    """f1 builds edge messages, f2 updates scalars, f3 gates the
    coordinate update (scalar per edge)."""
    message_mlp: MlpParams   # 2d + 1 -> h
    update_mlp: MlpParams    # d + h -> d
    coord_mlp: MlpParams     # 2d + 1 -> 1


def egnn_params(feature_dim: int, hidden: int = 32, seed: int = 0) -> EgnnParams:
    return EgnnParams(
        message_mlp=seeded_init((2 * feature_dim + 1, hidden, hidden), seed=seed),
        update_mlp=seeded_init((feature_dim + hidden, hidden, feature_dim),
                               seed=seed + 1),
        coord_mlp=seeded_init((2 * feature_dim + 1, hidden, 1), seed=seed + 2))


def egnn_layer(S, X, topology: GraphTopology, p: EgnnParams):
    """E(3)-equivariant update of scalars and coordinates."""
    S, X = _node_arrays(topology, S=S, X=X)
    if p.coord_mlp.out_dim != 1:
        raise DimensionMismatch("coordinate gate must be scalar")
    message = _edge_mlp(p.message_mlp, S, 1)
    coord = _edge_mlp(p.coord_mlp, S, 1)

    def messages(ids):
        src, dst, diff, dist = _edge_geometry(X, topology.edges[ids])
        gates = coord(src, dst, dist[:, None])
        return (message(src, dst, dist[:, None]),
                np.multiply(diff, gates, out=diff))
    agg, shift = _message_sums(
        topology, [(p.message_mlp.out_dim,), (3,)], messages)
    S_out = mlp_forward(p.update_mlp, np.concatenate([S, agg], axis=1))
    return S_out, X + shift


@dataclass(frozen=True)
class GcpFrame:
    """Per-edge local frames; a, b, c are (E, 3) with c = a x b.

    a is the normalised relative displacement, b the normalised cross
    product of the two absolute positions (a pseudovector, which is what
    makes the frame chirality-sensitive), c their cross product.
    """
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


def gcp_frames(X, topology: GraphTopology) -> GcpFrame:
    """Geometry-complete frames for every stored edge (receiver = target)."""
    X, = _node_arrays(topology, X=X)
    return _frames(X, *_edge_geometry(X, topology.edges))


def _frames(X, src, dst, rel, rel_norm) -> GcpFrame:
    """gcp_frames() from the edge geometry of X."""
    if np.any(rel_norm < _EPS):
        raise DegenerateFrame("coincident node positions on an edge")
    cross = np.cross(X[dst], X[src])
    cross_norm = np.linalg.norm(cross, axis=1)
    if np.any(cross_norm < _EPS):
        raise DegenerateFrame("parallel position vectors leave b undefined")
    a = rel / rel_norm[:, None]
    b = cross / cross_norm[:, None]
    c = np.cross(a, b)
    return GcpFrame(a, b, c)


@dataclass(frozen=True)
class GcpParams:
    """Simplified geometry-complete convolution: invariant edge scalars
    drive a scalar message and gates over frame axes and input vectors."""
    message_mlp: MlpParams   # inv_dim -> d
    gate_mlp: MlpParams      # inv_dim -> 5 * n_vector_channels
    node_mlp: MlpParams      # 2d -> d


def gcp_params(feature_dim: int, n_vec: int = 2, hidden: int = 32,
               seed: int = 0) -> GcpParams:
    inv_dim = 2 * feature_dim + 6 * n_vec + 1
    return GcpParams(
        message_mlp=seeded_init((inv_dim, hidden, feature_dim), seed=seed),
        gate_mlp=seeded_init((inv_dim, hidden, 5 * n_vec), seed=seed + 1),
        node_mlp=seeded_init((2 * feature_dim, hidden, feature_dim),
                             seed=seed + 2))


def _project(vecs: np.ndarray, frames: GcpFrame) -> np.ndarray:
    """(e, v, 3) vectors onto the three axes of their edge's frame: (e, 3v)."""
    return np.stack([np.einsum("evk,ek->ev", vecs, ax)
                     for ax in (frames.a, frames.b, frames.c)],
                    axis=2).reshape(len(vecs), 3 * vecs.shape[1])


def gcp_layer(S, V, X, topology: GraphTopology, p: GcpParams):
    """Frame-projected message passing over scalar and vector channels.

    Edge scalars concatenate both endpoint features, both endpoint vector
    channels projected onto the edge frame, and the edge length. Message
    vectors are gated combinations of the frame axes and endpoint vectors;
    node updates are residual.
    """
    S, V, X = _node_arrays(topology, S=S, V=V, X=X)
    n_vec = V.shape[1]
    message = _edge_mlp(p.message_mlp, S, 6 * n_vec + 1)
    gate = _edge_mlp(p.gate_mlp, S, 6 * n_vec + 1)

    def messages(ids):
        src, dst, diff, dist = _edge_geometry(X, topology.edges[ids])
        f = _frames(X, src, dst, diff, dist)
        per_edge = np.concatenate([_project(V[dst], f), _project(V[src], f),
                                   dist[:, None]], axis=1)
        gates = gate(src, dst, per_edge).reshape(len(src), n_vec, 5)
        return (message(src, dst, per_edge),
                gates[:, :, 0:1] * f.a[:, None, :]
                + gates[:, :, 1:2] * f.b[:, None, :]
                + gates[:, :, 2:3] * f.c[:, None, :]
                + gates[:, :, 3:4] * V[dst]
                + gates[:, :, 4:5] * V[src])
    agg_s, agg_v = _message_sums(
        topology, [(p.message_mlp.out_dim,), V.shape[1:]], messages)
    S_out = S + mlp_forward(p.node_mlp, np.concatenate([S, agg_s], axis=1))
    return S_out, V + agg_v


@dataclass(frozen=True)
class NoisePredictorParams:
    """Distance embedding and edge score for the equivariant noise head."""
    dist_mlp: MlpParams    # 1 -> h
    score_mlp: MlpParams   # 2d + h -> 1


def noise_predictor_params(feature_dim: int, hidden: int = 32,
                           seed: int = 0) -> NoisePredictorParams:
    return NoisePredictorParams(
        dist_mlp=seeded_init((1, hidden, hidden), seed=seed),
        score_mlp=seeded_init((2 * feature_dim + hidden, hidden, 1),
                              seed=seed + 1))


def noise_predictor(S, X, topology: GraphTopology,
                    p: NoisePredictorParams) -> np.ndarray:
    """Per-node noise estimate from scored, normalised edge directions.

    m_ij = score(s_i, s_j, dist_embed(||x_i - x_j||)) and
    eps_i = sum_j m_ij * (x_i - x_j) / ||x_i - x_j|| over incoming edges:
    translation-invariant by construction, rotation-equivariant.
    """
    S, X = _node_arrays(topology, S=S, X=X)
    if p.score_mlp.out_dim != 1:
        raise DimensionMismatch("edge score must be scalar")
    score = _edge_mlp(p.score_mlp, S, p.dist_mlp.out_dim)

    def messages(ids):
        src, dst, diff, dist = _edge_geometry(X, topology.edges[ids])
        if np.any(dist < _EPS):
            raise CoincidentNodes("zero-length edge")
        scores = score(src, dst, mlp_forward(p.dist_mlp, dist[:, None]))
        diff /= dist[:, None]
        return np.multiply(scores, diff, out=diff),
    return _message_sums(topology, [(3,)], messages)[0]
