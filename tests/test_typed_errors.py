"""Typed-error probe: public entry points fed malformed arrays.

Each row of _ENTRY_POINTS is one entry point: a call on well-formed
arguments and the kind of each array argument it takes. Every malformed
value of that kind, put in place of that one argument, must raise a
FoldkitError; any other exception fails the test. Another entry point is
one more row, and another kind of array one more entry of _MALFORMED.
"""

import numpy as np
import pytest

from foldkit import geometry, gnn
from foldkit.codec import EncodedProtein, InternalCoords, backbone_walk, nerf_place
from foldkit.errors import FoldkitError
from foldkit.geometry import GraphTopology
from foldkit.rng import make_rng
from foldkit.synth import make_internal

_N = 5
_TOPOLOGY = GraphTopology(_N, np.array([[0, 1], [1, 2], [2, 3], [3, 4],
                                        [4, 0], [2, 0]]))
_RNG = make_rng(95)


def _numbers(*shape):
    """Distinct non-zero numbers, so that no other check fires first."""
    return _RNG.normal(size=shape) + 5.0


# Malformed values of each kind of array argument, by what is wrong.
_MALFORMED = {
    "features (n, d)": {
        "(n,)": _numbers(_N), "(n, d, 1)": _numbers(_N, 4, 1),
        "ragged": [[1.0] * 4] * (_N - 1) + [[1.0] * 3],
        "text": [["a"] * 4] * _N},
    "points (n, 3)": {
        "(n,)": _numbers(_N), "(n, 2)": _numbers(_N, 2),
        "(n, 4)": _numbers(_N, 4), "(2, 6)": _numbers(2, 6),
        "ragged": _numbers(_N - 1, 3).tolist() + [[1.0, 2.0]],
        "text": _numbers(_N - 1, 3).tolist() + [["a", "b", "c"]]},
    "vectors (n, v, 3)": {
        "(n, 2, 2)": _numbers(_N, 2, 2), "(n, 6)": _numbers(_N, 6),
        "ragged": list(_numbers(_N - 1, 2, 3)) + [_numbers(1, 3)],
        "text": [[["a", "b", "c"]] * 2] * _N},
    "point (3,)": {
        "(2,)": (1.0, 2.0), "(4,)": (1.0, 2.0, 3.0, 4.0),
        "(1, 3)": [[1.0, 2.0, 3.0]], "ragged": [[1.0, 2.0, 3.0], [4.0]],
        "text": "abc"},
    "per residue (n, 3)": {
        "(n - 1, 3)": _numbers(_N - 1, 3), "(n + 1, 3)": _numbers(_N + 1, 3),
        "(n,)": _numbers(_N), "(n, 3, 1)": _numbers(_N, 3, 1),
        "ragged": _numbers(_N - 1, 3).tolist() + [[1.0, 2.0]],
        "text": [["a", "b", "c"]] * _N},
    "anchor (3, 3)": {
        "(9,)": _numbers(9), "(2, 3)": _numbers(2, 3),
        "(3, 4)": _numbers(3, 4), "ragged": [[1.0, 2.0, 3.0], [4.0]]},
    "codes (n,)": {
        "(n - 1,)": np.arange(_N - 1, dtype=np.uint8),
        "(n + 1,)": np.arange(_N + 1, dtype=np.uint8),
        "(n, 1)": np.arange(_N, dtype=np.uint8)[:, None],
        "ragged": [[0], [1, 2]] + [[3]] * (_N - 2)},
    "quantised (n, 6)": {
        "(n, 5)": np.ones((_N, 5), dtype=np.uint16),
        "(n - 1, 6)": np.ones((_N - 1, 6), dtype=np.uint16),
        "(n,)": np.ones(_N, dtype=np.uint16),
        "ragged": [[1] * 6] * (_N - 1) + [[1] * 5]},
    "per residue (n,)": {
        "(n - 1,)": _numbers(_N - 1), "(n + 1,)": _numbers(_N + 1),
        "(n, 1)": _numbers(_N, 1), "ragged": [1.0] * (_N - 1) + [[1.0, 2.0]],
        "text": ["a"] * _N},
}

_S, _X, _V = _numbers(_N, 4), _numbers(_N, 3), _numbers(_N, 2, 3)
_SCHNET, _EGNN = gnn.schnet_params(4, seed=96), gnn.egnn_params(4, seed=97)
_GCP, _NOISE = gnn.gcp_params(4, seed=98), gnn.noise_predictor_params(4, seed=99)
_NODES = {"S": "features (n, d)", "X": "points (n, 3)"}
_POINTS = dict.fromkeys("abc", "point (3,)")
_IC = make_internal(*np.full((3, _N), 0.5))

# name: (call taking its array arguments by keyword, their kinds)
_ENTRY_POINTS = {
    "gnn.schnet_layer": (lambda S=_S, X=_X: gnn.schnet_layer(
        S, X, _TOPOLOGY, _SCHNET), _NODES),
    "gnn.egnn_layer": (lambda S=_S, X=_X: gnn.egnn_layer(
        S, X, _TOPOLOGY, _EGNN), _NODES),
    "gnn.gcp_layer": (lambda S=_S, V=_V, X=_X: gnn.gcp_layer(
        S, V, X, _TOPOLOGY, _GCP), {**_NODES, "V": "vectors (n, v, 3)"}),
    "gnn.noise_predictor": (lambda S=_S, X=_X: gnn.noise_predictor(
        S, X, _TOPOLOGY, _NOISE), _NODES),
    "gnn.gcp_frames": (lambda X=_X: gnn.gcp_frames(X, _TOPOLOGY),
                       {"X": "points (n, 3)"}),
    "codec.nerf_place": (lambda a=(0.0, 0.0, 0.0), b=(1.0, 0.0, 0.0),
                         c=(1.0, 1.0, 0.0): nerf_place(a, b, c, 1.5, 2.0, 0.5),
                         _POINTS),
    "codec.InternalCoords": (lambda torsions=_IC.torsions, angles=_IC.angles,
                             anchor=_IC.anchor: backbone_walk(InternalCoords(
                                 _IC.res_types, torsions, angles, anchor)),
                             {"torsions": "per residue (n, 3)",
                              "angles": "per residue (n, 3)",
                              "anchor": "anchor (3, 3)"}),
    "codec.EncodedProtein": (lambda anchor=np.ones((3, 3), dtype=np.float32),
                             res_type_codes=np.arange(_N, dtype=np.uint8),
                             quantised=np.ones((_N, 6), dtype=np.uint16):
                             EncodedProtein(1, anchor, res_type_codes,
                                            quantised).to_bytes(),
                             {"anchor": "anchor (3, 3)",
                              "res_type_codes": "codes (n,)",
                              "quantised": "quantised (n, 6)"}),
    "synth.make_internal": (lambda phi=_numbers(_N), psi=_numbers(_N),
                            omega=_numbers(_N): make_internal(phi, psi, omega),
                            dict.fromkeys(("phi", "psi", "omega"),
                                          "per residue (n,)")),
    "geometry.dihedral": (lambda a=(0.0, 0.0, 0.0), b=(1.0, 0.0, 0.0),
                          c=(1.0, 1.0, 0.0), d=(1.0, 1.0, 1.0):
                          geometry.dihedral(a, b, c, d),
                          dict.fromkeys("abcd", "point (3,)")),
    "geometry.bond_angle": (lambda a=(0.0, 0.0, 0.0), b=(1.0, 0.0, 0.0),
                            c=(1.0, 1.0, 0.0): geometry.bond_angle(a, b, c),
                            _POINTS),
    "geometry.virtual_angles": (lambda X=_X: geometry.virtual_angles(X),
                                {"X": "points (n, 3)"}),
    "geometry.knn_graph": (lambda X=_X: geometry.knn_graph(X, 2),
                           {"X": "points (n, 3)"}),
    "geometry.kabsch": (lambda A=_X, B=_X + 1.0: geometry.kabsch(A, B),
                        dict.fromkeys("AB", "points (n, 3)")),
    "geometry.near_masks": (lambda A=_X, B=_X + 1.0: geometry.near_masks(
        A, B, 3.5), dict.fromkeys("AB", "points (n, 3)")),
}

_CASES = [(entry, arg, label)
          for entry, (_, kinds) in _ENTRY_POINTS.items()
          for arg, kind in kinds.items() for label in _MALFORMED[kind]]


@pytest.mark.parametrize("entry", _ENTRY_POINTS)
def test_well_formed_arguments_run(entry):
    _ENTRY_POINTS[entry][0]()


@pytest.mark.parametrize("entry, arg, label", _CASES,
                         ids=["-".join(case) for case in _CASES])
def test_malformed_array_raises_a_foldkit_error(entry, arg, label):
    call, kinds = _ENTRY_POINTS[entry]
    with pytest.raises(FoldkitError):
        call(**{arg: _MALFORMED[kinds[arg]][label]})
