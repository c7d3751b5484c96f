"""PDB v3.3 text parsing and writing.

Fixed-width column layout only; no whitespace-split fallback. Multi-model
files contribute MODEL 1 only. Alternate locations keep altloc ' ' or 'A'.
Waters (HOH) are dropped; all other HETATM records are retained as hetero
atoms carrying their three-letter code.
"""

from __future__ import annotations

import datetime
import math

import numpy as np

from .errors import CoordinateOverflow, EmptyStructure, MalformedRecord
from .residues import RESIDUE_INDEX
from .structure import Atom, Chain, Method, Residue, Structure

_MONTHS = ("JAN", "FEB", "MAR", "APR", "MAY", "JUN",
           "JUL", "AUG", "SEP", "OCT", "NOV", "DEC")
_MONTH_NUM = {m: i + 1 for i, m in enumerate(_MONTHS)}

_METHOD_TEXT = {
    Method.XRAY: "X-RAY DIFFRACTION",
    Method.NMR: "SOLUTION NMR",
    Method.EM: "ELECTRON MICROSCOPY",
    Method.PREDICTED: "THEORETICAL MODEL (PREDICTED)",
    Method.OTHER: "OTHER",
}


def _parse_pdb_date(text: str) -> datetime.date | None:
    # DD-MMM-YY; two-digit years below 50 are 20xx.
    parts = text.strip().split("-")
    if len(parts) != 3:
        return None
    try:
        day = int(parts[0])
        month = _MONTH_NUM[parts[1].upper()]
        yy = int(parts[2])
    except (ValueError, KeyError):
        return None
    year = 2000 + yy if yy < 50 else 1900 + yy
    try:
        return datetime.date(year, month, day)
    except ValueError:
        return None


def _parse_method(text: str) -> Method:
    t = text.upper()
    if "X-RAY" in t:
        return Method.XRAY
    if "NMR" in t:
        return Method.NMR
    if "ELECTRON MICROSCOPY" in t or "CRYO-EM" in t:
        return Method.EM
    if "THEORETICAL" in t or "PREDICTED" in t:
        return Method.PREDICTED
    return Method.OTHER


def _check_atom_line(line: str, line_no: int) -> None:
    """Raise MalformedRecord for the first bad field of one ATOM/HETATM
    record, in the order parse_pdb reads the columns."""
    if len(line) < 54:
        raise MalformedRecord(line_no, "record shorter than coordinate fields")
    try:
        int(line[6:11])
    except ValueError as exc:
        raise MalformedRecord(line_no, f"bad serial: {exc}") from exc
    if not line[12:16].strip():
        raise MalformedRecord(line_no, "blank atom name")
    try:
        int(line[22:26])
    except ValueError as exc:
        raise MalformedRecord(line_no, f"bad residue number: {exc}") from exc
    try:
        xyz = [float(line[30:38]), float(line[38:46]), float(line[46:54])]
    except ValueError as exc:
        raise MalformedRecord(line_no, f"bad coordinates: {exc}") from exc
    if not all(map(math.isfinite, xyz)):
        raise MalformedRecord(line_no, "non-finite coordinates")


def _floats(texts: list[str], default: float) -> list[float]:
    """A column of floats; a blank, garbled or non-finite entry reads as
    default."""
    try:
        values = list(map(float, texts))
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    return [_float_or(text, default) for text in texts]


def _float_or(text: str, default: float) -> float:
    try:
        value = float(text)
    except ValueError:
        return default
    return value if math.isfinite(value) else default


def parse_pdb(text: str, structure_id: str = "") -> Structure:
    """Parse PDB-format text into a Structure.

    Raises MalformedRecord for an un-parseable ATOM/HETATM line and
    EmptyStructure when neither polymer nor hetero atoms parse.
    """
    resolution = None
    dep_date = None
    method = None
    lines: list[str] = []  # the ATOM/HETATM records of MODEL 1
    line_nos: list[int] = []
    models_seen = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        tag = line[:6].strip()
        if tag == "ATOM" or tag == "HETATM":
            lines.append(line)
            line_nos.append(line_no)
        elif tag == "MODEL":
            models_seen += 1
            if models_seen > 1:
                break  # MODEL 1 only
        elif tag == "HEADER":
            parsed = _parse_pdb_date(line[50:59])
            if parsed is not None:
                dep_date = parsed
            header_id = line[62:66].strip()
            if header_id:
                structure_id = header_id  # HEADER id wins over the fallback
        elif tag == "EXPDTA":
            method = _parse_method(line[10:].strip())
        elif tag == "REMARK" and line[6:10].strip() == "2":
            for token in line[10:].replace("RESOLUTION.", " ").split():
                try:
                    resolution = float(token)
                    break
                except ValueError:
                    continue

    # The fields that can be malformed are parsed a whole column at a time;
    # on any failure the per-line check finds the first bad record.
    try:
        if min(map(len, lines), default=54) < 54:
            raise ValueError("short record")
        serials = list(map(int, [line[6:11] for line in lines]))
        names = [line[12:16].strip() for line in lines]
        if not all(names):
            raise ValueError("blank atom name")
        seq_indices = list(map(int, [line[22:26] for line in lines]))
        xyz = np.array([list(map(float, [line[c:c + 8] for line in lines]))
                        for c in (30, 38, 46)], dtype=np.float64).T.copy()
        if not np.isfinite(xyz).all():
            raise ValueError("non-finite coordinates")
    except ValueError:
        for line_no, line in zip(line_nos, lines):
            _check_atom_line(line, line_no)
        raise
    occupancies = _floats([line[54:60] for line in lines], 1.0)
    b_factors = _floats([line[60:66] for line in lines], 0.0)
    elements = [line[76:78].strip() for line in lines]

    # chain id -> residue key -> (res_type, seq_index, icode, {name: atom})
    chains: dict[str, dict] = {}
    hetero: list[Atom] = []
    seen_serials: set[int] = set()
    for line, serial, name, seq_index, pos, occupancy, b_factor, element in zip(
            lines, serials, names, seq_indices, xyz, occupancies, b_factors,
            elements):
        if line[16] not in (" ", "A"):
            continue
        while serial in seen_serials:
            serial += 1
        seen_serials.add(serial)
        element = element or next((c for c in name if c.isalpha()), "X")
        if not 0.0 <= occupancy <= 1.0:
            occupancy = min(max(occupancy, 0.0), 1.0)

        if line[0] == "H":  # of the two tags, only HETATM starts with H
            res_name = line[17:20].strip()
            if res_name != "HOH":
                hetero.append(Atom(name, element, pos, occupancy, b_factor,
                                   is_hetero=True, serial=serial,
                                   het_code=res_name))
            continue
        icode = line[26] if line[26] != " " else None
        residues = chains.setdefault(line[21], {})
        key = (seq_index, icode or "")
        if key not in residues:
            res_name = line[17:20].strip()
            canonical = res_name if res_name in RESIDUE_INDEX else "UNK"
            residues[key] = (canonical, seq_index, icode, {})
        atoms = residues[key][3]
        if name not in atoms:  # else a duplicate name after altloc resolution
            atoms[name] = Atom(name, element, pos, occupancy, b_factor,
                               is_hetero=False, serial=serial)

    chain_objs = tuple(
        Chain(cid, tuple(Residue(res_type, seq_index, icode, tuple(atoms.values()))
                         for _, (res_type, seq_index, icode, atoms)
                         in sorted(residues.items())))
        for cid, residues in chains.items())
    if not chain_objs and not hetero:
        raise EmptyStructure("no ATOM or HETATM records parsed")
    return Structure(structure_id, chain_objs, resolution,
                     dep_date, method, tuple(hetero))


def _format_date(d: datetime.date) -> str:
    return f"{d.day:02d}-{_MONTHS[d.month - 1]}-{d.year % 100:02d}"


def _format_coord(value: float) -> str:
    if not math.isfinite(value):
        raise CoordinateOverflow(f"non-finite coordinate {value}")
    text = f"{value:8.3f}"
    if len(text) > 8:
        raise CoordinateOverflow(f"coordinate {value} exceeds the 8-column field")
    return text


def _format_atom_name(name: str) -> str:
    # Short names start at column 14 per convention; 4-char names fill 13-16.
    return name[:4].ljust(4) if len(name) >= 4 else f" {name:<3s}"


def _atom_record(tag: str, atom: Atom, res_name: str, chain_id: str,
                 seq_index: int, icode: str) -> str:
    x, y, z = atom.position.tolist()
    return (f"{tag:<6s}{atom.serial:5d} {_format_atom_name(atom.name)} "
            f"{res_name:>3s} {chain_id:1s}{seq_index:4d}{icode:1s}   "
            f"{_format_coord(x)}{_format_coord(y)}{_format_coord(z)}"
            f"{atom.occupancy:6.2f}{atom.b_factor:6.2f}"
            f"          {atom.element[:2]:>2s}")


def write_pdb(s: Structure) -> str:
    """Render a Structure as PDB v3.3 text.

    Raises CoordinateOverflow for any coordinate that does not fit the
    8-column fixed-width field (|c| >= 10000, or c <= -1000).
    """
    lines = []
    date_text = _format_date(s.deposition_date) if s.deposition_date else ""
    lines.append(f"HEADER{'':44s}{date_text:<12s}{s.id[:4]:>4s}")
    if s.method is not None:
        lines.append(f"EXPDTA    {_METHOD_TEXT[s.method]}")
    if s.resolution is not None:
        lines.append(f"REMARK   2 RESOLUTION. {s.resolution:7.2f} ANGSTROMS.")
    for chain in s.chains:
        for res in chain.residues:
            icode = res.insertion_code or " "
            # MASK has no PDB code; written as MSK (re-parses as UNK).
            res_name = "MSK" if res.res_type == "MASK" else res.res_type[:3]
            for atom in res.atoms:
                lines.append(_atom_record("ATOM", atom, res_name,
                                          chain.id, res.seq_index, icode))
        lines.append("TER")
    for atom in s.hetero_atoms:
        lines.append(_atom_record("HETATM", atom, atom.het_code or "LIG",
                                  "Z", 1, " "))
    lines.append("END")
    return "\n".join(lines) + "\n"
