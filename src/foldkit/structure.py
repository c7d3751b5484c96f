"""Hierarchical structure model: chains of residues of atoms.

All types are frozen dataclasses and treated as immutable after
construction; functions here return new objects rather than mutating.
"""

from __future__ import annotations

import datetime
import enum
import logging
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import InvalidFilterSpec, NoCompleteResidues

logger = logging.getLogger(__name__)

BACKBONE_ATOMS = ("N", "CA", "C", "O")


class Method(enum.Enum):
    XRAY = "XRAY"
    NMR = "NMR"
    EM = "EM"
    PREDICTED = "PREDICTED"
    OTHER = "OTHER"


class Granularity(enum.Enum):
    CA_ONLY = "ca_only"
    BACKBONE = "backbone"
    ALL_ATOM = "all_atom"


@dataclass(frozen=True, eq=False)
class Atom:
    """Single atom; position in Ångström, b_factor pLDDT if predicted."""
    name: str
    element: str
    position: np.ndarray
    occupancy: float = 1.0
    b_factor: float = 0.0
    serial: int = 1

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=np.float64)
        object.__setattr__(self, "position", pos)

    def __eq__(self, other):
        if not isinstance(other, Atom):
            return NotImplemented
        return (self.name == other.name and self.element == other.element
                and np.array_equal(self.position, other.position)
                and self.occupancy == other.occupancy
                and self.b_factor == other.b_factor
                and self.serial == other.serial)


@dataclass(frozen=True)
class Residue:
    res_type: str  # three-letter code; non-canonical types are "UNK"
    seq_index: int
    insertion_code: str | None = None
    atoms: tuple[Atom, ...] = ()

    def atom(self, name: str) -> Atom | None:
        for a in self.atoms:
            if a.name == name:
                return a
        return None


@dataclass(frozen=True)
class Chain:
    """A chain of residues. A chain made by from_table builds its residues
    from the table on first access; any other chain builds its table from
    its residues on first access."""
    id: str
    residues: tuple[Residue, ...]

    @classmethod
    def from_table(cls, chain_id: str, table: AtomTable) -> Chain:
        chain = object.__new__(cls)
        chain.__dict__.update(id=chain_id, table=table)
        return chain

    def __getattr__(self, name):  # reached only for an unset attribute
        if name == "residues" and "table" in self.__dict__:
            return self.table.residues
        raise AttributeError(name)

    @cached_property
    def table(self) -> AtomTable:
        table = atom_table(self.residues)
        table.chain[:] = self.id
        return table


@dataclass(frozen=True)
class Structure:
    """Polymer chains, then ligand chains: the non-water HETATM records."""
    id: str
    chains: tuple[Chain, ...]
    resolution: float | None = None
    deposition_date: datetime.date | None = None
    method: Method | None = None
    ligands: tuple[Chain, ...] = ()

    @property
    def num_residues(self) -> int:
        return len(self.table.res_type)

    def iter_residues(self):
        for chain in self.chains:
            for res in chain.residues:
                yield chain, res

    @property
    def hetero_codes(self) -> set[str]:
        return {code for code in joined(self.ligands).res_type.tolist() if code}

    @cached_property
    def table(self) -> AtomTable:
        return joined(self.chains)


def joined(chains) -> AtomTable:
    """One AtomTable of the chains' tables, in chain order."""
    tables = [chain.table for chain in chains] or [atom_table(())]
    columns = {k: np.concatenate([getattr(t, k) for t in tables])
               for k in _ATOM_COLUMNS + _RESIDUE_COLUMNS}
    starts = np.cumsum([0] + [len(t.res_type) for t in tables])
    columns["owner"] = np.concatenate(
        [t.owner + start for t, start in zip(tables, starts)])
    codes: dict[str, int] = {}  # one code per name across the chains
    columns["names"] = np.concatenate([np.array(
        [codes.setdefault(name, len(codes)) for name in t.codes],
        dtype=np.int64)[t.names] for t in tables])
    return AtomTable(codes=codes, **columns)


_ATOM_COLUMNS = ("xyz", "names", "element", "occupancy", "b_factor", "serial",
                 "owner")
_RESIDUE_COLUMNS = ("res_type", "seq_index", "icode", "chain")


@dataclass(frozen=True, eq=False)
class AtomTable:
    """Atoms as columns, in output order. Per atom: positions xyz
    (m, 3), names (each atom's name as its code in codes, codes numbered
    in insertion order), element, occupancy, b_factor, serial and owner
    (the row of its residue, non-decreasing). Per residue: res_type,
    seq_index, icode (insertion code or None) and chain id."""
    xyz: np.ndarray
    names: np.ndarray
    codes: dict[str, int]
    element: np.ndarray
    occupancy: np.ndarray
    b_factor: np.ndarray
    serial: np.ndarray
    owner: np.ndarray
    res_type: np.ndarray
    seq_index: np.ndarray
    icode: np.ndarray
    chain: np.ndarray

    @cached_property
    def residues(self) -> tuple[Residue, ...]:
        """Residue and Atom views of the rows, built on first access; each
        position is a row view of xyz."""
        names = list(self.codes)
        atoms = [Atom(names[code], *fields, serial=serial)
                 for code, *fields, serial in zip(
                     self.names.tolist(), self.element.tolist(), self.xyz,
                     self.occupancy.tolist(), self.b_factor.tolist(),
                     self.serial.tolist())]
        ends = np.searchsorted(self.owner, np.arange(len(self.res_type)),
                               "right").tolist()
        return tuple(Residue(*fields, tuple(atoms[start:end]))
                     for *fields, start, end in zip(
                         self.res_type.tolist(), self.seq_index.tolist(),
                         self.icode.tolist(), [0] + ends, ends))

    @cached_property
    def atoms(self) -> tuple[Atom, ...]:
        return tuple(a for r in self.residues for a in r.atoms)

    @cached_property
    def backbone(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (n, 4, 3) N/CA/C/O positions, zero rows where absent,
        and their (n, 4) presence mask."""
        slots = self.slots(BACKBONE_ATOMS)
        xyz, present = np.zeros(slots.shape + (3,)), slots >= 0
        xyz[present] = self.xyz[slots[present]]
        xyz.flags.writeable = present.flags.writeable = False
        return xyz, present

    def named(self, names) -> np.ndarray:
        """(m, len(names)) mask: True where atom i is named names[j]."""
        return self.names[:, None] == [self.codes.get(n, -1) for n in names]

    def slots(self, names) -> np.ndarray:
        """(n, len(names)) index of the first atom of each name in each
        residue (Residue.atom's rule), -1 where there is none."""
        atom, column = np.nonzero(self.named(names))  # atom-major order
        cells, first = np.unique(self.owner[atom] * len(names) + column,
                                 return_index=True)
        out = np.full((len(self.res_type), len(names)), -1)
        out.flat[cells] = atom[first]
        return out

    def rows(self, start: int, stop: int) -> AtomTable:
        """The table of residue rows start..stop; it shares codes."""
        first, last = np.searchsorted(self.owner, [start, stop]).tolist()
        columns = {k: getattr(self, k)[first:last] for k in _ATOM_COLUMNS}
        columns.update((k, getattr(self, k)[start:stop])
                       for k in _RESIDUE_COLUMNS)
        columns["owner"] = columns["owner"] - start
        return AtomTable(codes=self.codes, **columns)


def object_array(values) -> np.ndarray:
    """A 1-d object array of values (strings or None)."""
    return np.array(list(values), dtype=object)


def atom_table(residues) -> AtomTable:
    """Gather the atoms of a residue sequence into one AtomTable whose
    views are those residues and atoms; its chain column is blank."""
    residues = tuple(residues)
    atoms = [a for r in residues for a in r.atoms]
    codes: dict[str, int] = {}
    table = AtomTable(
        np.array([a.position for a in atoms]).reshape(-1, 3),
        np.array([codes.setdefault(a.name, len(codes)) for a in atoms],
                 dtype=np.int64),
        codes, object_array(a.element for a in atoms),
        np.array([a.occupancy for a in atoms], dtype=np.float64),
        np.array([a.b_factor for a in atoms], dtype=np.float64),
        np.array([a.serial for a in atoms], dtype=np.int64),
        np.repeat(np.arange(len(residues)), [len(r.atoms) for r in residues]),
        object_array(r.res_type for r in residues),
        np.array([r.seq_index for r in residues], dtype=np.int64),
        object_array(r.insertion_code for r in residues),
        object_array("" for _ in residues))
    table.__dict__["residues"] = residues  # its views are the residues given
    return table


def complete_residues(s: Structure, wanted: tuple[str, ...]) -> list:
    """Per chain that keeps any: (chain, its AtomTable, the indices of the
    residues holding every wanted atom, their slots). Logs one warning
    naming s.id if any residue is dropped; raises NoCompleteResidues if
    none is kept."""
    found = []
    dropped = 0
    for chain in s.chains:
        table = chain.table
        slots = table.slots(wanted)
        rows = np.flatnonzero((slots >= 0).all(axis=1))
        dropped += len(slots) - len(rows)
        if len(rows):
            found.append((chain, table, rows, slots[rows]))
    if dropped:
        logger.warning("structure %r: dropped %d residues lacking one of %s",
                       s.id, dropped, ", ".join(wanted))
    if not found:
        raise NoCompleteResidues(f"no residue has all of {wanted}")
    return found


def select_granularity(s: Structure, level: Granularity) -> Structure:
    """Project a structure down to CA-only or backbone atoms.

    Residues missing a required atom are dropped; the drop count is logged.
    Raises NoCompleteResidues when nothing survives.
    """
    if level is Granularity.ALL_ATOM:
        return s
    wanted = ("CA",) if level is Granularity.CA_ONLY else BACKBONE_ATOMS
    return replace(s, chains=tuple(
        Chain(chain.id, tuple(
            replace(table.residues[i], atoms=tuple(table.atoms[j] for j in row))
            for i, row in zip(rows.tolist(), slots.tolist())))
        for chain, table, rows, slots in complete_residues(s, wanted)))


@dataclass(frozen=True)
class FilterSpec:
    """Dataset-curation filter. Unset fields do not constrain; set fields
    must all hold, with inclusive boundaries."""
    min_length: int | None = None
    max_length: int | None = None
    max_chains: int | None = None
    max_resolution: float | None = None
    date_range: tuple[datetime.date, datetime.date] | None = None
    required_ligands: frozenset[str] = field(default_factory=frozenset)
    excluded_ligands: frozenset[str] = field(default_factory=frozenset)
    allowed_methods: frozenset[Method] | None = None

    def __post_init__(self):
        if (self.min_length is not None and self.max_length is not None
                and self.min_length > self.max_length):
            raise InvalidFilterSpec("min_length > max_length")
        if self.date_range is not None and self.date_range[0] > self.date_range[1]:
            raise InvalidFilterSpec("date_range start after end")
        if self.max_resolution is not None and np.isnan(self.max_resolution):
            raise InvalidFilterSpec("max_resolution is NaN")  # would pass all

    def matches(self, s: Structure) -> bool:
        n = s.num_residues
        if self.min_length is not None and n < self.min_length:
            return False
        if self.max_length is not None and n > self.max_length:
            return False
        if self.max_chains is not None and len(s.chains) > self.max_chains:
            return False
        if self.max_resolution is not None:
            if s.resolution is None or s.resolution > self.max_resolution:
                return False
        if self.date_range is not None:
            if s.deposition_date is None:
                return False
            lo, hi = self.date_range
            if not (lo <= s.deposition_date <= hi):
                return False
        codes = s.hetero_codes
        if self.required_ligands and not self.required_ligands <= codes:
            return False
        if self.excluded_ligands and self.excluded_ligands & codes:
            return False
        if self.allowed_methods is not None:
            if s.method is None or s.method not in self.allowed_methods:
                return False
        return True


def filter_structures(structures, spec: FilterSpec):
    """Yield, in order, the structures matching every set field of spec."""
    for s in structures:
        if spec.matches(s):
            yield s


def _parse_date(text: str) -> datetime.date:
    return datetime.date.fromisoformat(text.strip())


def load_filter_spec(text: str) -> FilterSpec:
    """Parse the flat key=value filter grammar.

    Recognised keys: min_length, max_length, max_chains, max_resolution,
    date_range (from,to as ISO dates), required_ligands, excluded_ligands
    (comma-separated codes), allowed_methods. Blank lines and '#' comments
    are skipped.
    """
    kwargs: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidFilterSpec(f"line {line_no}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        try:
            if key in ("min_length", "max_length", "max_chains"):
                kwargs[key] = int(value)
            elif key == "max_resolution":
                kwargs[key] = float(value)
            elif key == "date_range":
                lo, _, hi = value.partition(",")
                kwargs[key] = (_parse_date(lo), _parse_date(hi))
            elif key in ("required_ligands", "excluded_ligands"):
                kwargs[key] = frozenset(
                    v.strip().upper() for v in value.split(",") if v.strip())
            elif key == "allowed_methods":
                kwargs[key] = frozenset(
                    Method[v.strip().upper()] for v in value.split(",") if v.strip())
            else:
                raise InvalidFilterSpec(f"line {line_no}: unknown key {key!r}")
        except InvalidFilterSpec:
            raise
        except (ValueError, KeyError) as exc:
            raise InvalidFilterSpec(f"line {line_no}: bad value for {key}: {exc}") from exc
    return FilterSpec(**kwargs)
