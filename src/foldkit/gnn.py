"""Forward-pass message-passing kernels, double precision, no training.

Edges follow the graph module's (source, target) storage; the target is
the receiving node, so relative geometry uses x_target - x_source. All
functions are pure: identical inputs and params give bit-identical
outputs. Each node's incoming messages are summed in stored-edge order,
starting from 0.0, so outputs do not depend on how the scatter runs.
"""

from __future__ import annotations

import enum
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (CoincidentNodes, DegenerateConfiguration,
                     DegenerateFrame, DimensionMismatch)
from .geometry import GraphTopology
from .rng import make_rng
from .tensorio import read_tensor, write_tensor

_EPS = 1e-12


class Activation(enum.Enum):
    SILU = "silu"
    RELU = "relu"
    IDENTITY = "identity"


def _activate(kind: Activation, x: np.ndarray) -> np.ndarray:
    """Overwrite x with its activation and return it."""
    if kind is Activation.SILU:  # x exp(min(x, 0)) / (1 + exp(-|x|)), no mask
        num = np.minimum(x, 0.0)  # no exponent is positive: no overflow
        num = np.multiply(np.exp(num, out=num), x, out=num)
        den = np.exp(np.negative(np.abs(x, out=x), out=x), out=x)
        den += 1.0
        return np.divide(num, den, out=x)
    if kind is Activation.RELU:
        return np.maximum(x, 0.0, out=x)
    return x


@dataclass(frozen=True)
class MlpParams:
    """Affine layers with an activation between them; the final layer is
    always linear."""
    widths: tuple            # (in, hidden..., out)
    weights: tuple           # (out_i, in_i) arrays
    biases: tuple            # (out_i,) arrays
    activation: Activation = Activation.SILU
    seed: int | None = None

    @property
    def in_dim(self) -> int:
        return self.widths[0]

    @property
    def out_dim(self) -> int:
        return self.widths[-1]


def seeded_init(widths, activation: Activation = Activation.SILU,
                seed: int = 0) -> MlpParams:
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
    return MlpParams(widths, tuple(weights), tuple(biases), activation, seed)


def mlp_forward(p: MlpParams, x) -> np.ndarray:
    """Apply the MLP to a vector or a batch of row vectors."""
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.shape[1] != p.in_dim:
        raise DimensionMismatch(f"input dim {x.shape[1]}, expected {p.in_dim}")
    last = len(p.weights) - 1
    for i, (W, b) in enumerate(zip(p.weights, p.biases)):
        x = x @ W.T  # a new array, so the caller's x is never written
        x += b
        if i != last:
            _activate(p.activation, x)
    return x[0] if squeeze else x


def save_mlp_params(p: MlpParams, directory) -> None:
    """Write weights/biases as FKT1 tensors plus a JSON manifest."""
    os.makedirs(directory, exist_ok=True)
    for i, (W, b) in enumerate(zip(p.weights, p.biases)):
        write_tensor(os.path.join(directory, f"w{i}.fkt"), W)
        write_tensor(os.path.join(directory, f"b{i}.fkt"), b)
    manifest = {"widths": list(p.widths), "activation": p.activation.value,
                "seed": p.seed}
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True)
        fh.write("\n")


def load_mlp_params(directory) -> MlpParams:
    with open(os.path.join(directory, "manifest.json")) as fh:
        manifest = json.load(fh)
    widths = tuple(manifest["widths"])
    weights = []
    biases = []
    for i in range(len(widths) - 1):
        weights.append(read_tensor(os.path.join(directory, f"w{i}.fkt")))
        biases.append(read_tensor(os.path.join(directory, f"b{i}.fkt")))
    return MlpParams(widths, tuple(weights), tuple(biases),
                     Activation(manifest["activation"]), manifest["seed"])


def _node_arrays(topology: GraphTopology, *arrays) -> list:
    """The per-node inputs as float64 arrays of one row per graph node."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    if any(a.shape[:1] != (topology.num_nodes,) for a in arrays):
        raise DimensionMismatch(f"per-node inputs {[a.shape for a in arrays]}"
                                f" for {topology.num_nodes} nodes")
    return arrays


def _edge_geometry(X: np.ndarray, topology: GraphTopology):
    """Distances and receiver-minus-sender difference vectors per edge."""
    src = topology.edges[:, 0]
    dst = topology.edges[:, 1]
    diff = X[dst] - X[src]
    dist = np.linalg.norm(diff, axis=1)
    return src, dst, diff, dist


def _aggregate(values: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Per-node sums in stored-edge order from 0.0, as np.add.at adds:
    bincount adds its weights into zeros one after another, in order."""
    width = math.prod(values.shape[1:])
    cells = dst[:, None] * width + np.arange(width)
    sums = np.bincount(cells.ravel(), values.reshape(-1), n * width)
    return sums.reshape((n,) + values.shape[1:])


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
    d = np.asarray(d, dtype=np.float64)
    return np.exp(-p.rbf_gamma * (d[..., None] - p.rbf_centers)**2)


def schnet_layer(S, X, topology: GraphTopology, p: SchNetParams) -> np.ndarray:
    """s'_i = s_i + sum_j s_j * filter(||x_i - x_j||), invariant to E(3)."""
    S, X = _node_arrays(topology, S, X)
    if p.filter_mlp.out_dim != S.shape[1]:
        raise DimensionMismatch("filter output dim != feature dim")
    if topology.num_edges == 0:
        return S.copy()
    src, dst, _, dist = _edge_geometry(X, topology)
    filters = mlp_forward(p.filter_mlp, rbf_expand(dist, p))
    return S + _aggregate(S[src] * filters, dst, len(S))


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
    S, X = _node_arrays(topology, S, X)
    if p.coord_mlp.out_dim != 1:
        raise DimensionMismatch("coordinate gate must be scalar")
    src, dst, diff, dist = _edge_geometry(X, topology)
    edge_in = np.concatenate([S[dst], S[src], dist[:, None]], axis=1)
    messages = mlp_forward(p.message_mlp, edge_in)
    agg = _aggregate(messages, dst, len(S))
    S_out = mlp_forward(p.update_mlp, np.concatenate([S, agg], axis=1))
    gates = mlp_forward(p.coord_mlp, edge_in)
    X_out = X + _aggregate(diff * gates, dst, len(S))
    return S_out, X_out


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
    X = np.asarray(X, dtype=np.float64)
    return _frames(X, *_edge_geometry(X, topology))


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


def gcp_layer(S, V, X, topology: GraphTopology, p: GcpParams):
    """Frame-projected message passing over scalar and vector channels.

    Edge scalars concatenate both endpoint features, both endpoint vector
    channels projected onto the edge frame, and the edge length. Message
    vectors are gated combinations of the frame axes and endpoint vectors;
    node updates are residual.
    """
    S, V, X = _node_arrays(topology, S, V, X)
    n, n_vec = V.shape[0], V.shape[1]
    src, dst, diff, dist = _edge_geometry(X, topology)
    frames = _frames(X, src, dst, diff, dist)

    def project(vecs):  # (E, n_vec, 3) onto the three frame axes
        return np.stack([np.einsum("evk,ek->ev", vecs, ax)
                         for ax in (frames.a, frames.b, frames.c)],
                        axis=2).reshape(len(src), 3 * n_vec)

    inv = np.concatenate([S[dst], S[src], project(V[dst]), project(V[src]),
                          dist[:, None]], axis=1)
    msg_s = mlp_forward(p.message_mlp, inv)
    gates = mlp_forward(p.gate_mlp, inv).reshape(len(src), n_vec, 5)
    msg_v = (gates[:, :, 0:1] * frames.a[:, None, :]
             + gates[:, :, 1:2] * frames.b[:, None, :]
             + gates[:, :, 2:3] * frames.c[:, None, :]
             + gates[:, :, 3:4] * V[dst]
             + gates[:, :, 4:5] * V[src])
    agg_s = _aggregate(msg_s, dst, n)
    agg_v = _aggregate(msg_v, dst, n)
    S_out = S + mlp_forward(p.node_mlp, np.concatenate([S, agg_s], axis=1))
    V_out = V + agg_v
    return S_out, V_out


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
    S, X = _node_arrays(topology, S, X)
    if p.score_mlp.out_dim != 1:
        raise DimensionMismatch("edge score must be scalar")
    src, dst, diff, dist = _edge_geometry(X, topology)
    if np.any(dist < _EPS):
        raise CoincidentNodes("zero-length edge")
    embedded = mlp_forward(p.dist_mlp, dist[:, None])
    scores = mlp_forward(p.score_mlp,
                         np.concatenate([S[dst], S[src], embedded], axis=1))
    directions = diff / dist[:, None]
    return _aggregate(scores * directions, dst, len(S))
