"""The three workloads: each is a sequence of steps run once per round.

A CLI step calls foldkit.cli.main with the argument list a user would
type; the corpus workload's "gnn" step reads the featurised tensors back
and runs each foldkit.gnn layer forward once per graph.

Why these three (see README.md for the layer-to-metric map):

* corpus: parsing, featurise (CA selection, torsions, features),
  tensor I/O and the GNN layers dominate; kNN stays small and the codec
  and PDB writing are idle.
* codec: the codec (internal coordinates, NeRF, quantisation), the
  corruption tasks and PDB writing dominate; featurise and kNN are idle.
* assembly: the O(n^2) kNN graph and the per-residue label loops over
  large multi-chain complexes dominate, and set the peak RSS.
"""

from __future__ import annotations

import os

STEPS = {
    "corpus": (
        ("featurise", ["featurise", "{inputs}", "{out}/features",
                       "--scheme", "ca_sc"]),
        ("gnn", None),
    ),
    "codec": (
        ("encode", ["encode", "{inputs}", "{out}/fkc"]),
        ("decode", ["decode", "{out}/fkc", "{out}/decoded"]),
        ("torsion_gauss", ["corrupt", "{inputs}", "{out}/torsion",
                           "--kind", "torsion_gauss"]),
        ("co_denoise", ["corrupt", "{inputs}", "{out}/co",
                        "--kind", "co_denoise"]),
    ),
    "assembly": (
        ("featurise", ["featurise", "{inputs}", "{out}/features",
                       "--scheme", "ca_bb"]),
        ("interface", ["label", "{inputs}", "{out}/interface",
                       "--mode", "interface"]),
        ("metal", ["label", "{inputs}", "{out}/metal",
                   "--mode", "metal", "--ligands", "ZN"]),
    ),
}
GNN_FEATURE_DIM = 57  # ca_sc, the corpus scheme


def argv(template, inputs: str, out: str, jobs: int) -> list:
    return [a.format(inputs=inputs, out=out) for a in template] + [
        "--jobs", str(jobs)]


class GnnStep:
    """Reads each featurised graph back and runs every GNN layer once."""

    def __init__(self):
        from foldkit import gnn
        self.params = (gnn.schnet_params(GNN_FEATURE_DIM),
                       gnn.egnn_params(GNN_FEATURE_DIM),
                       gnn.gcp_params(GNN_FEATURE_DIM),
                       gnn.noise_predictor_params(GNN_FEATURE_DIM))
        self.outputs: dict = {}

    def __call__(self, features_dir: str) -> int:
        from foldkit import geometry, gnn, tensorio
        schnet, egnn, gcp, noise = self.params
        self.outputs = {}
        for name in sorted(os.listdir(features_dir)):
            graph = os.path.join(features_dir, name)
            S = tensorio.read_tensor(os.path.join(graph, "scalars.fkt"))
            X = tensorio.read_tensor(os.path.join(graph, "coords.fkt"))
            V = tensorio.read_tensor(os.path.join(graph, "node_vectors.fkt"))
            with open(os.path.join(graph, "edges.tsv")) as fh:
                topology = geometry.edges_from_text(fh.read(), len(X))
            egnn_s, egnn_x = gnn.egnn_layer(S, X, topology, egnn)
            gcp_s, gcp_v = gnn.gcp_layer(S, V, X, topology, gcp)
            self.outputs[name] = {
                "schnet_s": gnn.schnet_layer(S, X, topology, schnet),
                "egnn_s": egnn_s, "egnn_x": egnn_x,
                "gcp_s": gcp_s, "gcp_v": gcp_v,
                "noise": gnn.noise_predictor(S, X, topology, noise)}
        return 0
