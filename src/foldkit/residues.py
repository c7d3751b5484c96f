"""Amino-acid vocabulary and per-residue-type atom tables.

The vocabulary has 23 symbols: the 20 canonical amino acids in one-letter
alphabetical order (ARNDCQEGHILKMFPSTWYV), then UNK, MASK, PAD. This index
order is frozen; serialised feature matrices depend on it.
"""

import hashlib

# Three-letter codes, index order is normative.
CANONICAL_RESIDUES = (
    "ALA", "ARG", "ASN", "ASP", "CYS",
    "GLN", "GLU", "GLY", "HIS", "ILE",
    "LEU", "LYS", "MET", "PHE", "PRO",
    "SER", "THR", "TRP", "TYR", "VAL",
)

UNK = "UNK"
MASK = "MASK"
PAD = "PAD"

VOCABULARY = CANONICAL_RESIDUES + (UNK, MASK, PAD)
VOCAB_SIZE = len(VOCABULARY)  # 23

RESIDUE_INDEX = {name: i for i, name in enumerate(VOCABULARY)}
UNK_INDEX = RESIDUE_INDEX[UNK]
MASK_INDEX = RESIDUE_INDEX[MASK]


def residue_index(res_type: str) -> int:
    """Vocabulary index for a three-letter code; non-canonical maps to UNK."""
    return RESIDUE_INDEX.get(res_type, UNK_INDEX)


def vocabulary_sha256() -> str:
    """Hash of the frozen vocabulary order, recorded in feature manifests."""
    return hashlib.sha256(",".join(VOCABULARY).encode("ascii")).hexdigest()


# Sidechain torsion atom quadruples, chi1..chi4 per residue type.
# Atom naming follows the wwPDB chemical component dictionary; the quadruple
# choice (e.g. OD1/OE1/CD1 branch picks) matches common rotamer-library
# convention. v1 of this table; downstream angle values depend on it.
CHI_ATOMS = {
    "ALA": (),
    "ARG": (("N", "CA", "CB", "CG"), ("CA", "CB", "CG", "CD"),
            ("CB", "CG", "CD", "NE"), ("CG", "CD", "NE", "CZ")),
    "ASN": (("N", "CA", "CB", "CG"), ("CA", "CB", "CG", "OD1")),
    "ASP": (("N", "CA", "CB", "CG"), ("CA", "CB", "CG", "OD1")),
    "CYS": (("N", "CA", "CB", "SG"),),
    "GLN": (("N", "CA", "CB", "CG"), ("CA", "CB", "CG", "CD"),
            ("CB", "CG", "CD", "OE1")),
    "GLU": (("N", "CA", "CB", "CG"), ("CA", "CB", "CG", "CD"),
            ("CB", "CG", "CD", "OE1")),
    "GLY": (),
    "HIS": (("N", "CA", "CB", "CG"), ("CA", "CB", "CG", "ND1")),
    "ILE": (("N", "CA", "CB", "CG1"), ("CA", "CB", "CG1", "CD1")),
    "LEU": (("N", "CA", "CB", "CG"), ("CA", "CB", "CG", "CD1")),
    "LYS": (("N", "CA", "CB", "CG"), ("CA", "CB", "CG", "CD"),
            ("CB", "CG", "CD", "CE"), ("CG", "CD", "CE", "NZ")),
    "MET": (("N", "CA", "CB", "CG"), ("CA", "CB", "CG", "SD"),
            ("CB", "CG", "SD", "CE")),
    "PHE": (("N", "CA", "CB", "CG"), ("CA", "CB", "CG", "CD1")),
    "PRO": (("N", "CA", "CB", "CG"), ("CA", "CB", "CG", "CD")),
    "SER": (("N", "CA", "CB", "OG"),),
    "THR": (("N", "CA", "CB", "OG1"),),
    "TRP": (("N", "CA", "CB", "CG"), ("CA", "CB", "CG", "CD1")),
    "TYR": (("N", "CA", "CB", "CG"), ("CA", "CB", "CG", "CD1")),
    "VAL": (("N", "CA", "CB", "CG1"),),
}

MAX_CHI = 4
