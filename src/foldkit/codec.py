"""Internal-coordinate codec: Cartesian <-> torsion/bond-angle state,
13-byte-per-residue quantisation, and sequential NeRF reconstruction.

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

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (BadMagic, ChainTooShort, DegenerateFrame,
                     TruncatedPayload, VersionMismatch)
from .geometry import (backbone_array, backbone_frames, backbone_torsions,
                       bond_angles, defined, wrap_angle)
from .residues import UNK, VOCABULARY, residue_index
from .structure import Atom, Chain, Residue

MAGIC = b"FKC1"
VERSION = 1
HEADER_SIZE = 41
RESIDUE_SIZE = 13

_Q = 65535.0


@dataclass(frozen=True)
class CanonicalGeometry:
    """Idealised backbone constants. Bond lengths are used for every
    reconstruction; the bond angles only seed synthetic chains (decoding
    uses the angles stored in the payload)."""
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
    """Torsions and bond angles per residue, plus the Cartesian anchor.

    Undefined terminal entries (phi[0], psi[-1], omega[-1], theta_ca[-1],
    theta_c[-1]) hold 0.0; the defined_* properties give their masks.
    """
    res_types: tuple
    phi: np.ndarray
    psi: np.ndarray
    omega: np.ndarray
    theta_n: np.ndarray
    theta_ca: np.ndarray
    theta_c: np.ndarray
    anchor: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))

    def __post_init__(self):
        for name in ("phi", "psi", "omega", "theta_n", "theta_ca", "theta_c"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=np.float64))
        object.__setattr__(self, "anchor",
                           np.asarray(self.anchor, dtype=np.float64).reshape(3, 3))

    @property
    def n_residues(self) -> int:
        return len(self.res_types)

    @property
    def defined_torsions(self) -> np.ndarray:
        """(n, 3) mask over (phi, psi, omega)."""
        n = self.n_residues
        mask = np.ones((n, 3), dtype=bool)
        mask[0, 0] = False
        mask[-1, 1] = False
        mask[-1, 2] = False
        return mask


def nerf_place(a, b, c, length: float, bond_angle_value: float,
               torsion: float) -> np.ndarray:
    """Place point d from three predecessors and internal coordinates.

    d satisfies |d-c| = length, angle(b,c,d) = bond_angle_value and
    dihedral(a,b,c,d) = torsion. Raises DegenerateFrame when a,b,c are
    collinear (or coincident) and cannot define a frame.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if length <= 0.0:
        raise DegenerateFrame("bond length must be positive")
    bc = b - c
    nbc = np.linalg.norm(bc)
    if nbc < 1e-12:
        raise DegenerateFrame("coincident frame atoms b and c")
    bc /= nbc
    n = np.cross(b - a, bc)
    nn = np.linalg.norm(n)
    if not np.isfinite(nn) or nn < 1e-12:
        raise DegenerateFrame("collinear frame atoms")
    n /= nn
    m = np.cross(n, bc)
    d_local = length * np.array([
        np.cos(bond_angle_value),
        np.sin(bond_angle_value) * np.cos(torsion),
        np.sin(bond_angle_value) * np.sin(torsion),
    ])
    return c + d_local[0] * bc + d_local[1] * m - d_local[2] * n


def to_internal(chain: Chain) -> InternalCoords:
    """Measure the internal-coordinate state of a backbone-complete chain."""
    n = len(chain.residues)
    if n < 3:
        raise ChainTooShort(f"need >= 3 residues, got {n}")
    frames = backbone_frames(chain, *backbone_array(chain))
    torsions = np.nan_to_num(backbone_torsions(frames))
    # consecutive triples of N0 CA0 C0 N1 ... are theta_n(0), theta_ca(0),
    # theta_c(0), theta_n(1), ...; the last two are undefined (0)
    atoms = frames.reshape(-1, 3)
    theta = np.append(defined(bond_angles, atoms[:-2], atoms[1:-1], atoms[2:]),
                      [0.0, 0.0]).reshape(n, 3)
    return InternalCoords(tuple(r.res_type for r in chain.residues),
                          *torsions.T, *theta.T, anchor=frames[0])


def from_internal(ic: InternalCoords, geom: CanonicalGeometry = DEFAULT_GEOMETRY,
                  chain_id: str = "A") -> Chain:
    """Rebuild a backbone chain by sequential NeRF placement.

    The anchor fixes the first N, CA, C absolutely; every later backbone
    atom uses the stored torsions/bond angles with geom's bond lengths.
    Carbonyl O sits in the C frame at torsion psi + pi from N(i+1).
    """
    n = ic.n_residues
    if not np.all(np.isfinite(ic.anchor)):
        raise DegenerateFrame("non-finite anchor")
    N = np.empty((n, 3))
    CA = np.empty((n, 3))
    C = np.empty((n, 3))
    N[0], CA[0], C[0] = ic.anchor
    for i in range(n - 1):
        N[i + 1] = nerf_place(N[i], CA[i], C[i], geom.c_n,
                              ic.theta_ca[i], ic.psi[i])
        CA[i + 1] = nerf_place(CA[i], C[i], N[i + 1], geom.n_ca,
                               ic.theta_c[i], ic.omega[i])
        C[i + 1] = nerf_place(C[i], N[i + 1], CA[i + 1], geom.ca_c,
                              ic.theta_n[i + 1], ic.phi[i + 1])

    residues = []
    serial = 1
    for i in range(n):
        # psi[-1] is stored as 0, so the last O uses torsion pi exactly.
        O = nerf_place(N[i], CA[i], C[i], geom.c_o, geom.angle_ca_c_o,
                       wrap_angle(ic.psi[i] + np.pi))
        atoms = []
        for name, p in (("N", N[i]), ("CA", CA[i]), ("C", C[i]), ("O", O)):
            element = name[0]
            atoms.append(Atom(name, element, p, serial=serial))
            serial += 1
        res_type = ic.res_types[i] if ic.res_types[i] in VOCABULARY else UNK
        residues.append(Residue(res_type, i + 1, None, tuple(atoms)))
    return Chain(chain_id, tuple(residues))


def _quantise_torsions(theta):
    """Map [-pi, pi) monotonically onto [0, 65535], rounding half to even;
    the round-trip error stays under half a step."""
    return np.rint((theta + np.pi) / (2.0 * np.pi) * _Q)


def _dequantise_torsions(q):
    # The two boundary bins come back a quarter-step inside (-pi, pi):
    # dequantising them to exactly +-pi would let fp noise flip the sign
    # when a rebuilt structure is re-measured, breaking the
    # encode(decode(encode(x))) fixed point. Error stays under half a step.
    step = 2.0 * np.pi / _Q
    return np.where(q == 0, -np.pi + 0.25 * step,
                    np.where(q == _Q, np.pi - 0.25 * step,
                             q / _Q * 2.0 * np.pi - np.pi))


def _quantise_bond_angles(theta):
    """Map (0, pi) onto [0, 65535]."""
    return np.rint(theta / np.pi * _Q)


def _dequantise_bond_angles(q):
    return q / _Q * np.pi


def quantise_torsion(theta: float) -> int:
    """Map [-pi, pi) onto u16; monotone, half-step round-trip error."""
    return int(_quantise_torsions(theta))


def dequantise_torsion(q: int) -> float:
    return float(_dequantise_torsions(q))


def quantise_bond_angle(theta: float) -> int:
    """Map (0, pi) onto u16."""
    return int(_quantise_bond_angles(theta))


def dequantise_bond_angle(q: int) -> float:
    return float(_dequantise_bond_angles(q))


@dataclass(frozen=True)
class EncodedProtein:
    """Parsed form of an FKC1 payload."""
    version: int
    anchor: np.ndarray          # (3, 3) float32 values
    res_type_codes: np.ndarray  # (n,) uint8
    quantised: np.ndarray       # (n, 6) uint16

    @property
    def n_residues(self) -> int:
        return len(self.res_type_codes)

    def to_bytes(self) -> bytes:
        out = bytearray()
        out += MAGIC
        out += struct.pack("<B", self.version)
        out += np.asarray(self.anchor, dtype="<f4").tobytes()
        body = np.empty((self.n_residues, RESIDUE_SIZE), dtype=np.uint8)
        body[:, 0] = self.res_type_codes
        body[:, 1:] = (np.asarray(self.quantised, dtype="<u2")
                       .view(np.uint8).reshape(self.n_residues, 12))
        out += body.tobytes()
        return bytes(out)

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
        rows = np.frombuffer(body, dtype=np.uint8).reshape(n, RESIDUE_SIZE)
        codes = rows[:, 0].copy()
        quantised = rows[:, 1:].copy().view("<u2").reshape(n, 6)
        return cls(version, anchor, codes, quantised)


def encode(chain: Chain) -> EncodedProtein:
    """Quantise a backbone-complete chain into the 13-byte-per-residue form."""
    ic = to_internal(chain)
    torsions = np.stack([ic.phi, ic.psi, ic.omega], axis=1)
    angles = np.stack([ic.theta_n, ic.theta_ca, ic.theta_c], axis=1)
    quantised = np.hstack([_quantise_torsions(torsions),
                           _quantise_bond_angles(angles)]).astype(np.uint16)
    codes = np.array([residue_index(t) for t in ic.res_types], dtype=np.uint8)
    return EncodedProtein(VERSION, ic.anchor.astype(np.float32), codes, quantised)


def decode(e: EncodedProtein, geom: CanonicalGeometry = DEFAULT_GEOMETRY,
           chain_id: str = "A") -> Chain:
    """Dequantise and rebuild the chain."""
    ic = InternalCoords(
        tuple(VOCABULARY[c] if c < len(VOCABULARY) else UNK
              for c in e.res_type_codes),
        *_dequantise_torsions(e.quantised[:, :3]).T,  # phi, psi, omega
        *_dequantise_bond_angles(e.quantised[:, 3:]).T,  # theta_n, _ca, _c
        anchor=e.anchor)
    return from_internal(ic, geom, chain_id)
