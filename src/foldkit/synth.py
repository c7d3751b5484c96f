"""Synthetic ideal-geometry chains for fixtures and demos.

Every builder rebuilds its chain with the codec's backbone walk
(codec.from_internal) from DEFAULT_GEOMETRY's bond lengths and angles,
so measured torsions of the result equal the requested ones (up to fp
rounding).
"""

from __future__ import annotations

import numpy as np

from .codec import DEFAULT_GEOMETRY, InternalCoords, from_internal
from .errors import shaped_array
from .residues import CANONICAL_RESIDUES
from .structure import Chain, Structure


def make_internal(phi, psi, omega, res_types=None,
                  anchor=None) -> InternalCoords:
    """Internal coordinates with the given torsions and ideal bond angles.

    Terminal entries of phi/psi/omega are overwritten with the 0.0
    placeholder the codec uses for undefined torsions. The default anchor
    puts the first N at the origin and N, CA, C in the xy-plane with ideal
    bond geometry.
    """
    phi = shaped_array(phi, (None,), "phi")
    torsions = np.stack([phi, shaped_array(psi, phi.shape, "psi"),
                         shaped_array(omega, phi.shape, "omega")], axis=1)
    torsions[:1, 0] = torsions[-1:, 1:] = 0.0  # phi[0], psi[-1], omega[-1]
    n = len(torsions)
    if res_types is None:
        res_types = tuple(CANONICAL_RESIDUES[i % 20] for i in range(n))
    g = DEFAULT_GEOMETRY
    angles = np.tile([g.angle_n_ca_c, g.angle_ca_c_n, g.angle_c_n_ca], (n, 1))
    angles[-1:, 1:] = 0.0  # undefined trailing angles, codec convention
    if anchor is None:
        ca = np.array([g.n_ca, 0.0, 0.0])
        anchor = np.array([np.zeros(3), ca, ca + g.ca_c * np.array(
            [-np.cos(g.angle_n_ca_c), np.sin(g.angle_n_ca_c), 0.0])])
    return InternalCoords(tuple(res_types), torsions, angles, anchor)


def random_chain(n: int, rng: np.random.Generator,
                 chain_id: str = "A") -> Chain:
    """Chain with uniform random torsions and canonical bond geometry."""
    torsions = rng.uniform(-np.pi, np.pi, size=(3, n))
    return from_internal(make_internal(*torsions), chain_id)


def single_chain_structure(chain: Chain, structure_id: str = "SYN",
                           ligands=()) -> Structure:
    return Structure(structure_id, (chain,), ligands=tuple(ligands))
