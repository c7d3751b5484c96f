"""PDB v3.3 text parsing and writing.

Fixed-width column layout only; no whitespace-split fallback. The parser
reads one matrix of codes (bytes for ASCII text, else code points), a row
per line padded or cut to 80 columns, and each ATOM/HETATM field as columns
of it; the writer builds a table's records as one such matrix. Multi-model
files contribute MODEL 1 only. Alternate locations keep altloc ' ' or 'A'.
Waters (HOH) are dropped; the other HETATM records become ligand chains,
grouped as the ATOM records are and written back the same way.
"""

from __future__ import annotations

import datetime
import itertools
import math

import numpy as np

from .errors import (CoordinateOverflow, EmptyStructure, FieldOverflow,
                     MalformedRecord)
from .residues import RESIDUE_INDEX
from .structure import AtomTable, Chain, Method, Structure, object_array

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


def _columns(block: np.ndarray, lines: list[str], rows: np.ndarray):
    """The serial, atom name and element, residue number and coordinate
    columns of records lines[rows], whose space-padded codes are block, each
    field read once. Raises MalformedRecord for the first bad record in file
    order, naming its first bad field in column order."""
    short = block[:, 53] == 32  # a blank that may be padding
    short[short] = [len(lines[i]) < 54 for i in rows[short].tolist()]
    serials, bad_serial = _read("serial", int, block[:, 6:11], 5)
    pairs = np.ascontiguousarray(block[:, [12, 13, 14, 15, 76, 77]])
    fields, field = np.unique(pairs.view(f"S{pairs.itemsize * 6}").ravel(),
                              return_inverse=True)
    fields = _texts(fields.view(block.dtype), 6)  # distinct name-and-element
    names, name = np.unique(object_array(f[:4].strip() for f in fields),
                            return_inverse=True)  # names that strip alike
    seq_index, bad_seq = _read("residue number", int, block[:, 22:26], 4)
    xyz, bad_xyz = _read("coordinates", float, block[:, 30:54], 8, 3)
    xyz = xyz.reshape(-1, 3)
    fault = min(filter(None, (  # (row, reason) per field, in column order
        _first(short, "record shorter than coordinate fields"), bad_serial,
        _first((names == "")[name[field]], "blank atom name"), bad_seq,
        bad_xyz, _first(~np.isfinite(xyz), "non-finite coordinates"),
    )), key=lambda fault: fault[0], default=None)  # ties: the first field
    if fault:
        raise MalformedRecord(int(rows[fault[0]]) + 1, fault[1])
    elements = object_array(f[4:].strip() or next(
        (c for c in f[:4] if c.isalpha()), "X") for f in fields)
    return serials, names, name[field], elements[field], seq_index, xyz


def _first(bad: np.ndarray, reason: str) -> tuple[int, str] | None:
    """(the first row that bad marks in any column, reason), or None."""
    hit = np.flatnonzero(bad)  # flat: a row-wise any() is slow
    return (int(hit[0]) * len(bad) // bad.size, reason) if len(hit) else None


_CODECS = {np.dtype(np.uint8): "ascii", np.dtype("<u4"): "utf-32-le"}


def _codes(text: str, ascii: bool) -> np.ndarray:
    """A code per character: bytes for ASCII text, else code points."""
    dtype = np.dtype(np.uint8 if ascii else "<u4")
    return np.frombuffer(text.encode(_CODECS[dtype], "surrogatepass"), dtype)


def _texts(codes: np.ndarray, width: int) -> list[str]:
    """The width-column fields of codes, exactly, in row order."""
    text = codes.tobytes().decode(_CODECS[codes.dtype], "surrogatepass")
    return [text[i:i + width] for i in range(0, len(text), width)]


def _read(field: str, convert, block: np.ndarray, width: int,
          decimals: int = 0) -> tuple[np.ndarray, tuple[int, str] | None]:
    """The width-column numbers of block's codes as convert reads them, int64
    (float64 if decimals), and the first row of block with a field convert
    rejects, with the reason naming field (None if it rejects none). A
    field in printf's shape, ' *-?[0-9]+' then '.' and decimals digits if
    any, is its digits' integer over 10**decimals, so float()'s bits; any
    other is read by convert, row by row, up to the first it rejects."""
    codes = block.reshape(-1, width)
    units = width - 1 - (decimals and decimals + 1)  # units digit column
    digits = codes - 48  # wraps below '0', so only digits are < 10
    is_digit = digits < 10
    digits *= is_digit
    printf, minus = is_digit[:, units].copy(), np.zeros(len(codes), bool)
    value = np.zeros(len(codes), np.int64)
    for j in range(width):  # column by column: a row-wise all() is slow
        if j < units:  # a blank, or a sign or digit that a digit follows
            sign = codes[:, j] == ord("-")
            minus |= sign
            printf &= ((sign | is_digit[:, j]) & is_digit[:, j + 1]
                       | (codes[:, j] == ord(" ")))
        elif j == units + 1:
            printf &= codes[:, j] == ord(".")
            continue
        elif j > units:
            printf &= is_digit[:, j]
        value = value * 10 + digits[:, j]
    values = value / 10.0 ** decimals if decimals else value
    np.negative(values, out=values, where=minus)  # -0.000 reads as -0.0
    others = np.flatnonzero(~printf)
    for at, text in zip(others.tolist(), _texts(codes[others], width)):
        try:
            values[at] = convert(text)
        except ValueError as exc:  # a row of block holds several fields
            return values, (at * width // block.shape[-1], f"bad {field}: {exc}")
    return values, None


def _float_or(text: str, default: float) -> float:
    """float(text), or default if that raises or is not finite."""
    try:
        value = float(text)
    except ValueError:
        return default
    return value if math.isfinite(value) else default


def parse_pdb(text: str, structure_id: str = "") -> Structure:
    """Parse PDB-format text into a Structure.

    Raises MalformedRecord for the first bad ATOM/HETATM record of MODEL 1,
    naming its first bad field; EmptyStructure with no polymer or ligand atom.
    """
    resolution = dep_date = method = None
    lines = text.splitlines()
    chars = _codes("%-80.80s" * len(lines) % tuple(lines),
                   text.isascii()).reshape(-1, 80)
    tags = chars[:, :6].copy().view(f"S{chars.itemsize * 6}").ravel()
    codec = _CODECS[chars.dtype]  # record: ATOM/HETATM of MODEL 1
    record = (tags == "ATOM  ".encode(codec)) | (tags == "HETATM".encode(codec))
    models_seen = 0
    for i in np.flatnonzero(~record).tolist():
        line = lines[i]
        tag = line[:6].strip()
        if tag == "ATOM" or tag == "HETATM":
            record[i] = True
        elif tag == "MODEL":
            models_seen += 1
            if models_seen > 1:
                record[i:] = False  # MODEL 1 only
                break
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
            values = (_float_or(token, None) for token in
                      line[10:].replace("RESOLUTION.", " ").split())
            resolution = next((v for v in values if v is not None), resolution)

    rows = np.flatnonzero(record)
    block = chars[rows]
    del chars  # the records' rows are all that is read from here on
    keep = (block[:, 16] == ord(" ")) | (block[:, 16] == ord("A"))  # altloc
    hetero = block[:, 0] == ord("H")  # only HETATM starts with H
    polymer, ligand = keep & ~hetero, keep & hetero  # ligand: HETATM but HOH
    ligand[ligand] = (block[ligand, 17:20] != [*map(ord, "HOH")]).any(axis=1)
    columns = _columns(block, lines, rows) if len(rows) else ()  # raises first
    if not (polymer | ligand).any():
        raise EmptyStructure("no ATOM or HETATM records parsed")
    serial, names, name, elements, seq, xyz = columns
    occupancy, b_factor = _read("", lambda t: _float_or(t, np.nan),
                                block[:, 54:66], 6, 2)[0].reshape(-1, 2).T
    occupancy = np.where(occupancy < 0.0, 0.0, np.fmin(occupancy, 1.0))  # NaN: 1
    b_factor = np.where(np.isnan(b_factor), 0.0, b_factor)  # unread (NaN): 0
    if (np.diff(np.sort(serial[keep])) == 0).any():  # repeats move up
        kept, above = serial[keep].tolist(), {}  # taken -> <= the next free
        for i, value in enumerate(kept):
            while value in above:  # path halving: skip ahead two links
                above[value] = above.get(above[value], above[value])
                value = above[value]
            above[value], kept[i] = value + 1, value
        serial[keep] = kept
    codes = {n: code for code, n in enumerate(names.tolist())}  # shared by all
    columns = block, codes, name, seq, xyz, elements, occupancy, b_factor, serial
    chains = _chains(np.flatnonzero(polymer), *columns, polymer=True)
    ligands = _chains(np.flatnonzero(ligand), *columns, polymer=False)
    return Structure(structure_id, chains, resolution,
                     dep_date, method, ligands)


def _chains(records, block, codes, name, seq_index, xyz, elements,
            occupancy, b_factor, serial, polymer) -> tuple[Chain, ...]:
    """The chains of the records (indices in file order): chains in
    first-seen order, residues sorted by (seq_index, insertion code) with
    file order kept inside each, the first atom of each name kept. Atom
    names are name's codes in codes. Polymer residue types outside the
    vocabulary read as UNK."""
    if not len(records):
        return ()
    _, first, chain = np.unique(block[records, 21], return_index=True,
                                return_inverse=True)
    icode = block[records, 26].astype(np.int64)
    icode[icode == ord(" ")] = -1  # no insertion code sorts first
    key = np.stack([first[chain], seq_index[records], icode])
    by_key = np.lexsort(key[::-1])  # stable: file order within a key
    records, key = records[by_key], key[:, by_key]
    head = np.ones(len(records), dtype=bool)
    head[1:] = (key[:, 1:] != key[:, :-1]).any(axis=0)
    residue = np.cumsum(head) - 1
    code = name[records]
    # the first atom of each name in each residue
    kept = np.sort(np.unique(residue * len(codes) + code, return_index=True)[1])
    atoms = records[kept]
    heads = _texts(block[records[head]], 80)  # each residue's first record
    res_names = [line[17:20].strip() for line in heads]
    table = AtomTable(
        xyz[atoms], code[kept], codes, elements[atoms],
        occupancy[atoms], b_factor[atoms], serial[atoms], residue[kept],
        object_array(r if not polymer or r in RESIDUE_INDEX else "UNK"
                     for r in res_names),
        seq_index[records[head]],
        object_array(None if line[26] == " " else line[26] for line in heads),
        object_array(line[21] for line in heads))
    bounds = np.flatnonzero(np.diff(key[0, head], prepend=-1)).tolist()
    bounds.append(len(heads))
    return tuple(Chain.from_table(heads[start][21], table.rows(start, stop))
                 for start, stop in zip(bounds, bounds[1:]))


def _format_date(d: datetime.date) -> str:
    return f"{d.day:02d}-{_MONTHS[d.month - 1]}-{d.year % 100:02d}"


def _check_coord(value: float) -> None:
    if not math.isfinite(value):
        raise CoordinateOverflow(f"non-finite coordinate {value}")
    if len(f"{value:8.3f}") > 8:
        raise CoordinateOverflow(f"coordinate {value} exceeds the 8-column field")


def _check_field(field: str, values, lo, hi, width: int) -> None:
    """Raise FieldOverflow for the first value not strictly inside (lo, hi),
    the values that fit the field's width (NaN fits nothing)."""
    values = np.asarray(values)
    outside = ~np.asarray((values > lo) & (values < hi), dtype=bool)
    if outside.any():
        raise FieldOverflow(f"{field} {values[outside].tolist()[0]} does not "
                            f"fit the {width}-column field")


def _check_text(field: str, values, width: int) -> None:
    for value in dict.fromkeys(values):  # each value once, first seen first
        if value is None or len(value) > width:
            raise FieldOverflow(
                f"{field} {value!r} does not fit the {width}-column field")


def _number(values: np.ndarray, width: int, decimals: int = 0) -> np.ndarray:
    """The (m, width) ASCII codes of '%{width}.{decimals}f' of values that
    fit ('%{width}d' if decimals is 0), as digit columns right to left."""
    scaled = np.abs(values) * 10.0 ** decimals
    rest = np.rint(scaled).astype(np.uint32)
    out = np.empty((width, len(values)), np.uint8)  # a row per column
    sign = np.where(np.signbit(values), np.uint8(ord("-")), np.uint8(ord(" ")))
    units = width - 1 - (decimals and decimals + 1)  # the units digit column
    out[units + 1:units + 2] = ord(".")  # the decimal point, if any
    for j in (j for j in range(width - 1, -1, -1) if j != units + 1):
        quotient = rest // 10  # by a scalar // is SIMD and % is not
        np.add(rest - quotient * 10, ord("0"), out=out[j], casting="unsafe")
        if j < units:  # a digit while rest > 0, then the sign, then blanks
            blank = rest == 0
            np.copyto(out[j], sign, where=blank)
            np.copyto(sign, np.uint8(ord(" ")), where=blank)
        rest = quotient
    out = out.T  # near a tie the float product may round unlike printf
    for i in np.flatnonzero(np.abs(scaled - np.rint(scaled)) > 0.5 - 1e-6):
        out[i] = np.frombuffer(b"%*.*f" % (width, decimals, values[i]), np.uint8)
    return out


def _render(tag: str, chain_id: str, t: AtomTable) -> str:
    """One record per atom of t, after every field check, as a row of one
    code matrix: text fields rendered once per distinct value, gathered."""
    if chain_id is None or len(chain_id) != 1:
        raise FieldOverflow(f"chain id {chain_id!r} is not one column")
    _check_field("residue number", t.seq_index, -1000, 10000, 4)
    icodes, element = [i or " " for i in t.icode.tolist()], t.element.tolist()
    _check_text("insertion code", icodes, 1)
    _check_field("serial", t.serial, -10000, 100000, 5)
    _check_field("occupancy", t.occupancy, -99.995, 999.995, 6)
    _check_field("b-factor", t.b_factor, -99.995, 999.995, 6)
    if not ((t.xyz > -999.9995) & (t.xyz < 9999.9995)).all():  # NaN fails too
        for value in t.xyz.ravel().tolist():  # the first misfit in atom order
            _check_coord(value)
    _check_text("atom name", t.codes, 4)
    _check_text("element", element, 2)
    # MASK has no PDB code; written as MSK (re-parses as UNK).
    res_names = ["MSK" if r == "MASK" else r for r in t.res_type.tolist()]
    _check_text("residue name", res_names, 3)
    # residue name, chain id, number and insertion code per residue row
    residues = "".join(" %3s %1s%4d%1s   " % fields for fields in zip(
        res_names, itertools.repeat(chain_id), t.seq_index.tolist(), icodes))
    # Short names start at column 14 per convention; 4-char names fill 13-16.
    names = "".join(name if len(name) == 4 else f" {name:<3s}"
                    for name in t.codes)
    kinds = {kind: code for code, kind in enumerate(dict.fromkeys(element))}
    elements = "".join("%2s\n" % kind for kind in kinds)  # columns 77-78
    ascii = (tag + names + residues + elements).isascii()
    tags, names, residues, elements = (_codes(text, ascii).reshape(-1, width)
        for text, width in ((tag, 6), (names, 4), (residues, 14), (elements, 3)))
    out = np.full((len(element), 79), ord(" "), tags.dtype)  # row per record
    out[:, :6] = tags
    out[:, 6:11] = _number(t.serial, 5)
    out[:, 12:16] = names.take(t.names, axis=0)
    out[:, 16:30] = residues.take(t.owner, axis=0)
    out[:, 30:54] = _number(t.xyz.ravel(), 8, 3).reshape(-1, 24)
    out[:, 54:60] = _number(t.occupancy, 6, 2)
    out[:, 60:66] = _number(t.b_factor, 6, 2)
    out[:, 76:] = elements.take(np.fromiter(
        map(kinds.__getitem__, element), np.intp, len(element)), axis=0)
    return out.tobytes().decode(_CODECS[out.dtype], "surrogatepass")


def write_pdb(s: Structure) -> str:
    """Render a Structure as PDB v3.3 text: one code matrix of digit and
    text columns per chain, its ATOM records closed by TER, then one of
    HETATM records per ligand chain; byte for byte printf's, -0.000 too.

    Raises CoordinateOverflow for the first coordinate, in atom order,
    that does not fit its 8 columns, and FieldOverflow for any other field
    that does not fit its columns. Only the structure id is cut (to 4): a
    structure read without a HEADER is named after its file.
    """
    date_text = _format_date(s.deposition_date) if s.deposition_date else ""
    parts = [f"HEADER{'':44s}{date_text:<12s}{s.id[:4]:>4s}\n"]
    if s.method is not None:
        parts.append(f"EXPDTA    {_METHOD_TEXT[s.method]}\n")
    if s.resolution is not None:
        parts.append(f"REMARK   2 RESOLUTION. {s.resolution:7.2f} ANGSTROMS.\n")
    for chain in s.chains:
        parts += (_render("ATOM  ", chain.id, chain.table), "TER\n")
    parts += (_render("HETATM", chain.id, chain.table) for chain in s.ligands)
    return "".join(parts) + "END\n"
