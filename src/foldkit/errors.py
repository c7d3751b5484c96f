"""Typed exceptions raised across the toolkit.

Every recoverable failure surfaces as a FoldkitError subclass so callers
(and the CLI) can distinguish data errors from genuine bugs.
"""


class FoldkitError(Exception):
    """Base class for all toolkit errors."""


# --- structure parsing / writing ---

class MalformedRecord(FoldkitError):
    def __init__(self, line_no, reason=""):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"malformed record at line {line_no}: {reason}")


class EmptyStructure(FoldkitError):
    pass


class NoCompleteResidues(FoldkitError):
    pass


class CoordinateOverflow(FoldkitError):
    pass


class FieldOverflow(FoldkitError):
    pass


class InvalidFilterSpec(FoldkitError):
    pass


# --- geometry ---

class DegenerateGeometry(FoldkitError):
    pass


class MissingAtom(FoldkitError):
    def __init__(self, residue, atom_name):
        self.residue = residue
        self.atom_name = atom_name
        super().__init__(f"residue {residue} is missing atom {atom_name!r}")


class TooFewNodes(FoldkitError):
    pass


class DegenerateConfiguration(FoldkitError):
    pass


# --- codec ---

class ChainTooShort(FoldkitError):
    pass


class DegenerateFrame(FoldkitError):
    pass


class BadMagic(FoldkitError):
    pass


class TruncatedPayload(FoldkitError):
    pass


class VersionMismatch(FoldkitError):
    pass


# --- featurisation ---

class OddDimension(FoldkitError):
    pass


# --- tasks ---

class MissingConfidence(FoldkitError):
    pass


class SelectorEmpty(FoldkitError):
    pass


class SingleChain(FoldkitError):
    pass


# --- gnn kernels ---

class DimensionMismatch(FoldkitError):
    pass


class CoincidentNodes(FoldkitError):
    pass
