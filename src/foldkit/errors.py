"""Typed exceptions, and shaped_array: the one check of array arguments.

Every recoverable failure surfaces as a FoldkitError subclass so callers
(and the CLI) can distinguish data errors from genuine bugs.
"""

import numpy as np


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


def shaped_array(a, shape: tuple | None, what: str) -> np.ndarray:
    """a as float64 of the given shape (None matches any length; a shape of
    None, any rank); raises DimensionMismatch otherwise, for ragged or
    non-numeric input too. A float64 array is returned without a copy."""
    try:
        a = np.asarray(a, dtype=np.float64)
    except (TypeError, ValueError):
        raise DimensionMismatch(f"{what} is not a numeric array") from None
    if shape is not None and (a.ndim != len(shape) or not all(
            w is None or w == d for d, w in zip(a.shape, shape))):
        raise DimensionMismatch(f"{what} has shape {a.shape}, expected {shape}")
    return a


def index_array(a, shape: tuple | None, what: str) -> np.ndarray:
    """shaped_array(a, shape, what) as exact int64 (a itself when it already
    is); raises DimensionMismatch for a value that is not an int64 integer
    (NaN and infinities too)."""
    if isinstance(a, np.ndarray) and a.dtype.kind in "biu":
        shaped_array(np.broadcast_to(0.0, a.shape), shape, what)  # shape only
        return a.astype(np.int64, copy=False)
    values = shaped_array(a, shape, what)
    with np.errstate(invalid="ignore"):
        ints = np.asarray(a).astype(np.int64)
    if np.any(ints != values):
        raise DimensionMismatch(f"{what} holds a value that is not an integer")
    return ints


class CoincidentNodes(FoldkitError):
    pass
