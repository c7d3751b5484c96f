"""Internal-coordinate codec: Cartesian <-> torsion/bond-angle state,
13-byte-per-residue quantisation, and NeRF reconstruction. Coordinates
are defined by sequential NeRF placement and computed as one prefix
product of rigid transforms, which agrees with it to 1e-9 A at n = 3000
(a '%8.3f' digit can flip at a rounding tie).

Binary layout (FKC1, little-endian, normative):

    bytes 0..3    magic "FKC1"
    byte  4       version (1)
    bytes 5..40   anchor: N, CA, C of the first residue, 9 x f32
    then per residue, 13 bytes:
        u8   residue-type vocabulary index
        u16  phi      round((theta + pi) / 2pi * 65535)
        u16  psi      "
        u16  omega    "
        u16  theta_n  round(theta / pi * 65535)   (N-CA-C)
        u16  theta_ca "                           (CA-C-N+1)
        u16  theta_c  "                           (C-N+1-CA+1)

Total size is exactly 41 + 13*n bytes; the residue count is implied by
the body length. Torsions undefined at the termini (phi[0], psi[-1],
omega[-1], and the trailing bond angles) are stored as 0.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (BadMagic, ChainTooShort, DegenerateFrame,
                     DimensionMismatch, TruncatedPayload, VersionMismatch)
from .geometry import (TWO_PI, backbone_frames, backbone_torsions,
                       bond_angles, defined, shaped_array)
from .residues import UNK, VOCABULARY, residue_index
from .structure import BACKBONE_ATOMS, AtomTable, Chain, object_array

MAGIC = b"FKC1"
VERSION = 1
HEADER_SIZE = 41
_RECORD = np.dtype([("type", "u1"), ("q", "<u2", 6)])  # packed
RESIDUE_SIZE = _RECORD.itemsize

_Q = 65535.0


@dataclass(frozen=True)
class CanonicalGeometry:
    """Idealised backbone constants. FKC1 fixes the bond lengths and the
    CA-C-O angle of every reconstruction; the other angles only seed
    synthetic chains (decoding uses the angles stored in the payload)."""
    n_ca: float = 1.458
    ca_c: float = 1.525
    c_n: float = 1.329
    c_o: float = 1.231
    angle_ca_c_o: float = 2.106
    angle_n_ca_c: float = 1.9373
    angle_ca_c_n: float = 2.0350
    angle_c_n_ca: float = 2.1240


DEFAULT_GEOMETRY = CanonicalGeometry()


@dataclass(frozen=True)
class InternalCoords:
    """Per-residue backbone torsions (n, 3: phi, psi, omega) and bond
    angles (n, 3: theta_n, theta_ca, theta_c), plus the first N, CA, C.

    Raveled, each is in walk order: entry k + 1 (k = 0 ... 3n - 4) places
    atom k + 3 (from 0) of N1 CA1 C1 N2 ...; the first entry and the last
    two place no N, CA or C, and the undefined ones hold 0.0 (psi[-1]
    still orients the last O). Other shapes than (n, 3) and a (3, 3)
    anchor raise DimensionMismatch.
    """
    res_types: tuple
    torsions: np.ndarray
    angles: np.ndarray
    anchor: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))

    def __post_init__(self):
        n = len(self.res_types)
        for name, shape in (("torsions", (n, 3)), ("angles", (n, 3)),
                            ("anchor", (3, 3))):
            object.__setattr__(self, name, shaped_array(
                getattr(self, name), shape, name))

    @property
    def n_residues(self) -> int:
        return len(self.res_types)

    @property
    def defined_torsions(self) -> np.ndarray:
        """(n, 3) mask over (phi, psi, omega): True exactly at
        ravel()[1:-2], the torsions the walk reads."""
        mask = np.zeros(3 * self.n_residues, dtype=bool)
        mask[1:-2] = True
        return mask.reshape(-1, 3)


def _frame(a, b, c) -> np.ndarray:
    """The (4, 4) NeRF frame [u m n | c] of points a, b, c: u = (b-c)/|b-c|,
    n along (b-a) x u and m = n x u. Raises DegenerateFrame when b and c
    coincide or a, b, c are collinear."""
    u = b - c
    nbc = np.linalg.norm(u)
    if nbc < 1e-12:
        raise DegenerateFrame("coincident frame atoms b and c")
    u = u / nbc
    n = _cross(b - a, u)
    nn = np.linalg.norm(n)
    if not (math.isfinite(nn) and nn >= 1e-12):
        raise DegenerateFrame("collinear frame atoms")
    n = n / nn
    frame = np.eye(4)
    frame[:3] = np.stack([u, _cross(n, u), n, c], axis=1)
    return frame


def _cross(x, y) -> np.ndarray:
    """np.cross of two 3-vectors, rounded as it rounds, without its overhead."""
    (x0, x1, x2), (y0, y1, y2) = x.tolist(), y.tolist()
    return np.array([x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0])


def _steps(length, bond_angle_value, torsion) -> np.ndarray:
    """(k, 4, 4) rigid transforms from the frame of a, b, c to that of
    b, c, d, where d is placed at the given |d-c|, angle(b,c,d) and
    dihedral(a,b,c,d): right-multiplied, they chain NeRF steps (pNeRF)."""
    if not (length > 0.0).all():
        raise DegenerateFrame("bond length must be positive")
    C, S = np.cos(bond_angle_value), np.sin(bond_angle_value)
    c, s = np.cos(torsion), np.sin(torsion)
    zero, one = np.zeros_like(C), np.ones_like(C)
    return np.stack([-C, S, zero, length * C,
                     -S * c, -c * C, s, length * (S * c),
                     S * s, s * C, c, -length * (S * s),
                     zero, zero, zero, one], axis=1).reshape(-1, 4, 4)


def nerf_place(a, b, c, length: float, bond_angle_value: float,
               torsion: float) -> np.ndarray:
    """Place point d from three predecessors and internal coordinates.

    d satisfies |d-c| = length, angle(b,c,d) = bond_angle_value and
    dihedral(a,b,c,d) = torsion: one step of backbone_walk(). Raises
    DimensionMismatch unless each point is three numbers, and
    DegenerateFrame when a,b,c are collinear (or coincident) and cannot
    define a frame, or a point, the length or an angle is not finite.
    """
    a, b, c = (shaped_array(p, (3,), "point") for p in (a, b, c))
    values = np.array([[length], [bond_angle_value], [torsion]], dtype=np.float64)
    if not (np.isfinite(values).all() and np.isfinite([a, b, c]).all()):
        raise DegenerateFrame("non-finite point, bond length, angle or torsion")
    step = _steps(*values)[0]
    return (_frame(a, b, c) @ step)[:3, 3]


def to_internal(chain: Chain) -> InternalCoords:
    """Measure the internal-coordinate state of a backbone-complete chain."""
    table = chain.table
    n = len(table.res_type)
    if n < 3:
        raise ChainTooShort(f"need >= 3 residues, got {n}")
    frames = backbone_frames(table)
    # consecutive triples of N0 CA0 C0 N1 ... are theta_n(0), theta_ca(0),
    # theta_c(0), theta_n(1), ...; the last two are undefined (0)
    atoms = frames.reshape(-1, 3)
    angles = np.append(defined(bond_angles, atoms[:-2], atoms[1:-1], atoms[2:]),
                       [0.0, 0.0]).reshape(n, 3)
    return InternalCoords(tuple(table.res_type.tolist()),
                          np.nan_to_num(backbone_torsions(frames)), angles,
                          frames[0])


def backbone_walk(ic: InternalCoords) -> np.ndarray:
    """(n, 4, 3) N/CA/C/O positions defined by sequential NeRF placement.

    The anchor fixes the first N, CA, C absolutely; every later backbone
    atom uses the stored torsions/bond angles with the canonical bond
    lengths. Carbonyl O sits in the C frame at torsion psi + pi from N(i+1).
    The frames are computed at once, as the prefix products of the anchor
    frame and the 3(n-1) step transforms (log2(3n) doubling steps).
    """
    if not all(np.isfinite(a).all() for a in (ic.anchor, ic.torsions, ic.angles)):
        raise DegenerateFrame("non-finite anchor, bond angle or torsion")
    g = DEFAULT_GEOMETRY
    n = ic.n_residues
    if n == 0:
        return np.empty((0, 4, 3))
    # step 3i + j places atom j (N, CA, C) of residue i + 1
    length = np.tile([g.c_n, g.n_ca, g.ca_c], n - 1)
    theta, torsion = ic.angles.ravel()[1:-2], ic.torsions.ravel()[1:-2]
    N, CA, C = ic.anchor
    P = np.concatenate([_frame(N, CA, C)[None], _steps(length, theta, torsion)])
    # The frame after step k has |(b-a) x u| = |b-a| sin(theta[k]), where
    # b-a is the bond step k - 1 placed (the anchor's C-CA for k = 0).
    if not (np.append(np.linalg.norm(C - CA), length[:-1])
            * np.abs(np.sin(theta)) >= 1e-12).all():
        raise DegenerateFrame("collinear frame atoms")
    shift = 1
    while shift < len(P):  # inclusive scan: P[k] becomes P[0] @ ... @ P[k]
        P[shift:] = P[:-shift] @ P[shift:]
        shift *= 2
    # psi[-1] is stored as 0, so the last O uses torsion pi exactly.
    O = P[::3] @ _steps(np.full(n, g.c_o), np.full(n, g.angle_ca_c_o),
                        (ic.torsions[:, 1] + math.pi + math.pi) % TWO_PI - math.pi)
    atoms = np.concatenate([ic.anchor[:2], P[:, :3, 3]]).reshape(n, 3, 3)
    return np.concatenate([atoms, O[:, None, :3, 3]], axis=1)


def from_internal(ic: InternalCoords, chain_id: str = "A") -> Chain:
    """Rebuild a backbone chain from backbone_walk(), atoms serialised
    from 1 and residues numbered from 1."""
    n = ic.n_residues
    return Chain.from_table(chain_id, AtomTable(
        backbone_walk(ic).reshape(-1, 3), np.tile(np.arange(4), n),
        {name: j for j, name in enumerate(BACKBONE_ATOMS)},
        object_array(name[0] for name in BACKBONE_ATOMS * n), np.ones(4 * n),
        np.zeros(4 * n), np.arange(1, 4 * n + 1), np.repeat(np.arange(n), 4),
        object_array(t if t in VOCABULARY else UNK for t in ic.res_types),
        np.arange(1, n + 1), object_array([None] * n),
        object_array([chain_id] * n)))


def quantise_torsions(theta):
    """Map [-pi, pi) monotonically onto [0, 65535], rounding half to even;
    the round-trip error stays under half a step."""
    return np.rint((theta + np.pi) / (2.0 * np.pi) * _Q)


def dequantise_torsions(q):
    # The two boundary bins come back a quarter-step inside (-pi, pi):
    # dequantising them to exactly +-pi would let fp noise flip the sign
    # when a rebuilt structure is re-measured, breaking the
    # encode(decode(encode(x))) fixed point. Error stays under half a step.
    step = 2.0 * np.pi / _Q
    return np.where(q == 0, -np.pi + 0.25 * step,
                    np.where(q == _Q, np.pi - 0.25 * step,
                             q / _Q * 2.0 * np.pi - np.pi))


def quantise_bond_angles(theta):
    """Map (0, pi) onto [0, 65535]."""
    return np.rint(theta / np.pi * _Q)


def dequantise_bond_angles(q):
    return q / _Q * np.pi


@dataclass(frozen=True)
class EncodedProtein:
    """Parsed form of an FKC1 payload."""
    version: int
    anchor: np.ndarray          # (3, 3) float32 values
    res_type_codes: np.ndarray  # (n,) uint8
    quantised: np.ndarray       # (n, 6) uint16

    def __post_init__(self):
        try:  # np.shape and np.size raise ValueError for a ragged field
            n = np.size(self.res_type_codes)
            for name, shape in (("anchor", (3, 3)), ("res_type_codes", (n,)),
                                ("quantised", (n, 6))):
                if np.shape(getattr(self, name)) != shape:
                    raise DimensionMismatch(f"{name} must have shape {shape}")
        except ValueError:
            raise DimensionMismatch("EncodedProtein field is ragged") from None

    @property
    def n_residues(self) -> int:
        return len(self.res_type_codes)

    def to_bytes(self) -> bytes:
        body = np.empty(self.n_residues, dtype=_RECORD)
        body["type"], body["q"] = self.res_type_codes, self.quantised
        return b"".join((MAGIC, struct.pack("<B", self.version),
                         np.asarray(self.anchor, dtype="<f4").tobytes(),
                         body.tobytes()))

    @classmethod
    def from_bytes(cls, payload: bytes) -> "EncodedProtein":
        if len(payload) < 4:
            raise TruncatedPayload("payload shorter than the magic")
        if payload[:4] != MAGIC:
            raise BadMagic(f"expected {MAGIC!r}, got {payload[:4]!r}")
        if len(payload) < HEADER_SIZE:
            raise TruncatedPayload("payload shorter than the header")
        version = payload[4]
        if version != VERSION:
            raise VersionMismatch(f"unsupported version {version}")
        body = payload[HEADER_SIZE:]
        if len(body) % RESIDUE_SIZE != 0:
            raise TruncatedPayload(
                f"body length {len(body)} is not a multiple of {RESIDUE_SIZE}")
        n = len(body) // RESIDUE_SIZE
        if n == 0:
            raise TruncatedPayload("payload has no residues")
        with np.errstate(invalid="ignore"):  # fuzzed payloads carry NaN bits
            anchor = np.frombuffer(payload, dtype="<f4", count=9,
                                   offset=5).reshape(3, 3).astype(np.float64)
        rows = np.frombuffer(body, dtype=_RECORD)
        return cls(version, anchor, rows["type"].copy(), rows["q"].copy())


def encode(chain: Chain) -> EncodedProtein:
    """Quantise a backbone-complete chain into the 13-byte-per-residue form."""
    ic = to_internal(chain)
    anchor = ic.anchor.astype(np.float32)
    # residue 1's N-CA-C is the anchor's: measure it as the payload stores it
    ic.angles[0, 0] = defined(bond_angles, *anchor)[0]
    quantised = np.hstack([quantise_torsions(ic.torsions),
                           quantise_bond_angles(ic.angles)]).astype(np.uint16)
    codes = np.array([residue_index(t) for t in ic.res_types], dtype=np.uint8)
    return EncodedProtein(VERSION, anchor, codes, quantised)


def dequantise(e: EncodedProtein) -> InternalCoords:
    """The internal coordinates a payload stores, which decode() walks."""
    return InternalCoords(
        tuple(VOCABULARY[c] if c < len(VOCABULARY) else UNK
              for c in e.res_type_codes),
        dequantise_torsions(e.quantised[:, :3]),
        dequantise_bond_angles(e.quantised[:, 3:]), e.anchor)


def decode(e: EncodedProtein, chain_id: str = "A") -> Chain:
    """Dequantise and rebuild the chain."""
    return from_internal(dequantise(e), chain_id)
