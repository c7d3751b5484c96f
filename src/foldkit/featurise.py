"""Graph featurisation: scalar feature matrices and vector features.

A protein graph couples a k-NN topology over CA positions with scalar
node features S (n x d) and geometric vector features. Scalar blocks are
concatenated in a fixed, normative order:

    one-hot residue type (23)
    sinusoidal positional encoding (16)
    sin/cos of virtual angles kappa, alpha (4)
    sin/cos of backbone torsions phi, psi, omega (6)
    sin/cos of sidechain torsions chi1..chi4 (8)

truncated at the scheme's block, giving 23/39/43/49/57 columns. Angles
that are undefined embed as (0, 0), a point off the unit circle, so no
feature matrix ever contains NaN.
"""

from __future__ import annotations

import collections
import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateConfiguration, DegenerateGeometry,
                     OddDimension, shaped_array)
from .geometry import (GraphTopology, backbone_frames, backbone_torsions,
                       knn_graph, row_norms, table_chi,
                       virtual_angle_array)
from .residues import MAX_CHI, VOCAB_SIZE, residue_index
from .structure import Structure, complete_residues

POSITION_DIM = 16
DEFAULT_K = 16


class FeatureScheme(enum.Enum):
    CA_IDENT = "ca_ident"
    CA_SEQ = "ca_seq"
    CA_ANGLES = "ca_angles"
    CA_BB = "ca_bb"
    CA_SC = "ca_sc"

    @property
    def dim(self) -> int:
        return _SCHEME_DIMS[self]


# Each scheme ends one block further along the normative order.
_SCHEME_DIMS = dict(zip(FeatureScheme, itertools.accumulate(
    (VOCAB_SIZE, POSITION_DIM, 4, 6, 2 * MAX_CHI))))


def _positional_block(indices: np.ndarray, dim: int = POSITION_DIM) -> np.ndarray:
    if dim % 2 != 0:
        raise OddDimension(f"dim must be even, got {dim}")
    if dim < 0:
        raise DegenerateConfiguration(f"dim must be >= 0, got {dim}")
    k = np.arange(dim // 2)
    rates = indices[:, None] / np.power(10000.0, 2.0 * k / dim)
    pe = np.empty((len(indices), dim))
    pe[:, 0::2] = np.sin(rates)
    pe[:, 1::2] = np.cos(rates)
    return pe


def positional_encoding(index: int, dim: int = POSITION_DIM) -> np.ndarray:
    """Transformer-style sinusoid: pe[2k] = sin(i / 10000^(2k/dim)),
    pe[2k+1] the matching cosine."""
    return _positional_block(np.array([index]), dim)[0]


def _embed(angles: np.ndarray) -> np.ndarray:
    """(n, m) angles -> (n, 2m) interleaved (sin, cos); NaN (undefined)
    embeds as (0, 0)."""
    undefined = np.isnan(angles)
    out = np.empty((len(angles), 2 * angles.shape[1]))
    out[:, 0::2] = np.where(undefined, 0.0, np.sin(angles))
    out[:, 1::2] = np.where(undefined, 0.0, np.cos(angles))
    return out


# One chain's graph nodes: the chain id, the AtomTable of the whole
# chain, the node rows of the table, their (n, 3) CA positions and their
# vocabulary indices.
_NodeChain = collections.namedtuple("_NodeChain", "id table rows ca types")


def _nodes(s: Structure):
    """The graph nodes, the residues with a CA (complete_residues): one
    _NodeChain per chain, then the (n, 3) CA coordinates and (n,) chain
    index."""
    chains = []
    for chain, table, rows, slots in complete_residues(s, ("CA",)):
        chains.append(_NodeChain(
            chain.id, table, rows, table.xyz[slots[:, 0]],
            [residue_index(t) for t in table.res_type[rows]]))
    coords = np.concatenate([node.ca for node in chains])
    chain_index = np.repeat(np.arange(len(chains), dtype=np.int64),
                            [len(node.rows) for node in chains])
    return chains, coords, chain_index


def _scalar_blocks(node: _NodeChain, first_position: int):
    """One chain's scalar feature blocks in the normative order, each
    computed only when asked for."""
    _, table, rows, ca, types = node
    n = len(rows)
    yield np.eye(VOCAB_SIZE)[types]
    yield _positional_block(first_position + np.arange(n))
    yield _embed(virtual_angle_array(ca) if n >= 2
                 else np.full((n, 2), np.nan))
    yield _embed(backbone_torsions(backbone_frames(table, rows)))
    yield _embed(table_chi(table, rows))


def _scalar_features(chains, scheme: FeatureScheme,
                     global_positions: bool) -> np.ndarray:
    rows = []
    offset = 0
    for node in chains:
        blocks = itertools.islice(  # the scheme ends at its own block
            _scalar_blocks(node, offset if global_positions else 0),
            list(FeatureScheme).index(scheme) + 1)
        rows.append(np.concatenate(list(blocks), axis=1))
        offset += len(node.rows)
    return np.concatenate(rows)


def scalar_features(s: Structure, scheme: FeatureScheme,
                    global_positions: bool = False) -> np.ndarray:
    """Scalar feature matrix, one row per CA-bearing residue: every block
    concatenated in the normative order, truncated at scheme.dim.

    Positional indices restart at 0 for each chain unless global_positions
    is set. Angle-bearing schemes raise MissingAtom when a node residue
    lacks the backbone atoms its torsions need.
    """
    return _scalar_features(_nodes(s)[0], scheme, global_positions)


def _unit_rows(v: np.ndarray) -> np.ndarray:
    norms = row_norms(v)
    if np.any(norms < 1e-12):
        raise DegenerateGeometry("coincident CA positions")
    return v / norms[:, None]


def _vector_features(coords: np.ndarray, chain_index: np.ndarray,
                     topology: GraphTopology):
    node_vectors = np.zeros((len(coords), 2, 3))
    linked = chain_index[1:] == chain_index[:-1]
    node_vectors[1:, 0][linked] = _unit_rows((coords[:-1] - coords[1:])[linked])
    node_vectors[:-1, 1][linked] = _unit_rows((coords[1:] - coords[:-1])[linked])
    src, dst = topology.edges.T
    return node_vectors, _unit_rows(coords[dst] - coords[src])


def vector_features(s: Structure, topology: GraphTopology):
    """Node orientation vectors and edge direction vectors.

    Node i carries unit vectors toward its chain predecessor and successor
    (zero at chain termini), shape (n, 2, 3). Each stored edge
    (source, target) carries the unit vector from source to target,
    x_target - x_source, shape (E, 3).
    """
    _, coords, chain_index = _nodes(s)
    return _vector_features(coords, chain_index, topology)


@dataclass(frozen=True)
class ProteinGraph:
    """Geometric graph: topology, CA coordinates, scalar features S,
    node/edge vector features, plus residue metadata used by task
    generators (vocabulary indices and per-node chain index)."""
    topology: GraphTopology
    coords: np.ndarray        # (n, 3)
    scalars: np.ndarray       # (n, scheme.dim)
    node_vectors: np.ndarray  # (n, 2, 3), unit or zero rows
    edge_vectors: np.ndarray  # (E, 3), unit rows
    scheme: FeatureScheme
    res_types: tuple          # vocabulary indices, len n
    chain_index: np.ndarray   # (n,) int, position of the node's chain
    chain_ids: tuple          # chain id per chain_index value

    def __post_init__(self):
        n = self.topology.num_nodes
        for name, shape in (("coords", (n, 3)), ("scalars", (n, self.scheme.dim)),
                            ("node_vectors", (n, 2, 3)), ("res_types", (n,)),
                            ("edge_vectors", (self.topology.num_edges, 3))):
            shaped_array(getattr(self, name), shape, name)
        if not np.all(np.isfinite(self.scalars)):
            raise DegenerateGeometry("non-finite scalar features")
        norms = np.linalg.norm(self.node_vectors, axis=-1)
        if not np.all((np.abs(norms - 1.0) < 1e-9) | (norms < 1e-9)):
            raise DegenerateGeometry("node vectors are neither unit nor zero")

    @property
    def num_nodes(self) -> int:
        return self.topology.num_nodes


def build_graph(s: Structure, scheme: FeatureScheme = FeatureScheme.CA_BB,
                k: int = DEFAULT_K,
                global_positions: bool = False) -> ProteinGraph:
    """Compose CA selection, k-NN topology, scalar and vector features."""
    chains, coords, chain_index = _nodes(s)
    topology = knn_graph(coords, k)
    scalars = _scalar_features(chains, scheme, global_positions)
    node_vectors, edge_vectors = _vector_features(coords, chain_index, topology)
    return ProteinGraph(
        topology=topology, coords=coords, scalars=scalars,
        node_vectors=node_vectors, edge_vectors=edge_vectors, scheme=scheme,
        res_types=tuple(i for node in chains for i in node.types),
        chain_index=chain_index,
        chain_ids=tuple(node.id for node in chains))
