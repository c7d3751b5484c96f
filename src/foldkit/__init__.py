"""foldkit: protein structure parsing, compression, featurisation, and
denoising-task generation, with equivariant GNN forward kernels."""

__version__ = "0.1.0"

from .codec import (CanonicalGeometry, DEFAULT_GEOMETRY, EncodedProtein,
                    InternalCoords, backbone_walk, decode, encode,
                    from_internal, nerf_place, to_internal)
from .featurise import (FeatureScheme, ProteinGraph, build_graph, embed_angle,
                        positional_encoding, scalar_features, vector_features)
from .geometry import (ChiSet, DihedralSet, GraphTopology, Superposition,
                       VirtualAngleSet, backbone_dihedrals, bond_angle,
                       dihedral, kabsch, knn_graph, sidechain_torsions,
                       virtual_angles, wrap_angle)
from .pdb import parse_pdb, write_pdb
from .structure import (Atom, Chain, FilterSpec, Granularity, Method, Residue,
                        Structure, filter_structures, load_filter_spec,
                        select_granularity)
from .tasks import (CorruptionKind, CorruptionResult, CorruptionSpec,
                    DenoisingTargets, LabelSet, MaskedAttribute,
                    binding_site_labels, co_corrupt, corrupt_coords_gaussian,
                    corrupt_coords_uniform, corrupt_sequence_mask,
                    corrupt_sequence_mutate, corrupt_structure,
                    corrupt_torsions, interface_labels,
                    masked_attribute_targets, plddt_targets)

__all__ = [name for name in dir() if not name.startswith("_")]
