"""PDB v3.3 text parsing and writing.

Fixed-width column layout only; no whitespace-split fallback. The parser
finds the lines of the encoded text (bytes for ASCII text, else code
points) by str.splitlines' rules, copies its ATOM/HETATM records into one
matrix of codes, a row per record padded or cut to 80 columns, and reads
each field as columns of it; the writer builds a table's records as one
such matrix. Multi-model files contribute MODEL 1 only. Alternate
locations keep altloc ' ' or 'A'. Waters (HOH) are dropped; the other
HETATM records become ligand chains, grouped as the ATOM records are and
written back the same way.
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


def _columns(block: np.ndarray, rows: np.ndarray, short: np.ndarray):
    """The serial, atom name, residue number and coordinate columns of the
    records on lines rows, whose space-padded codes are block and short
    those under 54 columns, each field read once, and the distinct elements
    with each record's index among them. Raises
    MalformedRecord for the first bad record in file order, naming its
    first bad field in column order."""
    serials, bad_serial = _read("serial", int, block[:, 6:11], 5)
    fields, field = _distinct(block[:, [12, 13, 14, 15, 76, 77]])
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
    return serials, names, name[field], (elements, field), seq_index, xyz


def _first(bad: np.ndarray, reason: str) -> tuple[int, str] | None:
    """(the first row that bad marks in any column, reason), or None."""
    hit = bad.ravel().nonzero()[0]  # flat: a row-wise any() is slow
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


def _distinct(codes: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The distinct rows of an (m, width) code matrix as text, in no set
    order, and each row's index among them. A row of at most 8 bytes sorts
    as one uint64 (zero-padded), a longer one as a byte string."""
    width = codes.shape[1]
    keys = np.zeros((len(codes), max(width, 8 // codes.itemsize)), codes.dtype)
    keys[:, :width] = codes
    size = keys.itemsize * keys.shape[1]
    keys = keys.view(np.uint64 if size == 8 else f"S{size}").ravel()
    distinct = np.sort(keys)  # then a search: no argsort of every row
    new = np.ones(len(keys), bool)
    new[1:] = distinct[1:] != distinct[:-1]
    distinct = distinct[new]
    rows = distinct.view(codes.dtype).reshape(len(distinct), -1)[:, :width]
    return _texts(rows, width), np.searchsorted(distinct, keys)


def _read(field: str, convert, block: np.ndarray, width: int,
          decimals: int = 0) -> tuple[np.ndarray, tuple[int, str] | None]:
    """The width-column numbers of block's codes as convert reads them, int64
    (float64 if decimals), and the first row of block with a field convert
    rejects, with the reason naming field (None if it rejects none). A
    field in printf's shape, ' *-?[0-9]+' then '.' and decimals digits if
    any, is its digits' integer over 10**decimals, so float()'s bits; any
    other is read by convert, row by row, up to the first it rejects."""
    codes = np.ascontiguousarray(block.reshape(-1, width).T)  # row per column
    units = width - 1 - (decimals and decimals + 1)  # units digit column
    digits = codes - 48  # wraps below '0', so only digits are < 10
    is_digit = digits < 10
    digits *= is_digit
    printf, minus = is_digit[units].copy(), np.zeros(codes.shape[1], bool)
    value = np.zeros(codes.shape[1], np.int32)  # up to 9 digits fit
    for j in range(width):  # column by column: a row-wise all() is slow
        if j < units:  # a blank, or a sign or digit that a digit follows
            sign = codes[j] == ord("-")
            minus |= sign
            printf &= ((sign | is_digit[j]) & is_digit[j + 1]
                       | (codes[j] == ord(" ")))
        elif j == units + 1:
            printf &= codes[j] == ord(".")
            continue
        elif j > units:
            printf &= is_digit[j]
        value *= 10
        value += digits[j]
    values = value / 10.0 ** decimals if decimals else value.astype(np.int64)
    values *= 1 - 2 * minus.view(np.int8)  # -1 if minus: -0.000 reads as -0.0
    others = np.flatnonzero(~printf)
    for at, text in zip(others.tolist(), _texts(codes[:, others].T, width)):
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


# The codes that may end a line, with 32 standing for NEL, LS and PS.
_BREAKS = np.isin(np.arange(33), [10, 11, 12, 13, 28, 29, 30, 32])


def _lines(codes: np.ndarray, crlf: bool) -> tuple[np.ndarray, np.ndarray]:
    """Each line's start in codes, then len(codes), and each line's length,
    by str.splitlines' rules: a line ends at LF, CR, CR LF, VT, FF, FS, GS
    or RS, and in code points also at NEL, LS or PS; a break that ends the
    text starts no line. crlf may be False only if the text holds no CR."""
    at = []  # the control codes, few of them not a newline, found in
    for i in range(0, len(codes), 1 << 16):  # blocks: no text-long mask
        block = codes[i:i + (1 << 16)]
        near = block < 32
        if codes.itemsize > 1:
            near |= (block == 0x85) | ((block | 1) == 0x2029)
        at.append(near.nonzero()[0] + i)
    at = np.concatenate(at) if at else np.zeros(0, np.intp)
    at = at[_BREAKS.take(codes[at], mode="clip")]
    ends, after = at, at + 1  # where each break's line ends, the next starts
    if crlf:  # the LF of a CR LF ends no line; the next starts after it
        lone = np.ones(len(at) + 1, bool)
        lone[1:-1] = at[1:] - at[:-1] != 1
        lone[1:-1] |= codes[at[:-1]] != 13
        lone[1:-1] |= codes[at[1:]] != 10
        ends, after = at[lone[:-1]], after[lone[1:]]
    ends = np.concatenate((ends, [len(codes)]))  # a last line with no break
    starts = np.concatenate(([0], after, [len(codes)]))
    if starts[-2] == len(codes):  # a break ends the text: no last line
        ends, starts = ends[:-1], starts[:-1]
    return starts, ends - starts[:-1]


_TAGS = np.array([[*b"ATOM  "], [*b"HETATM"]]).T[:, :, None]  # (column, tag)


def _records(codes: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Whether each line starts 'ATOM  ' or 'HETATM'. A line shorter than
    6 has its break among the six codes read, or is the last and 'ATOM '
    read as 'ATOM  ', which the header loop would take too."""
    tags = codes.take(starts[:-1] + np.arange(6)[:, None], mode="clip")
    return (tags[:, None] == _TAGS).all(0).any(0)


def _matrix(codes: np.ndarray, lines, starts, lengths) -> np.ndarray:
    """The given lines (in file order) as the rows of one matrix, each
    padded with blanks or cut to 80 columns. A run of adjacent lines of one
    length and one span to the next line's start is evenly spaced in codes:
    one reshape, copied, then blanks past its length."""
    first, after = starts.take(lines), starts[1:].take(lines)
    lengths = lengths.take(lines)
    span = after - first
    out = np.empty((len(lines), 80), codes.dtype)
    head = first[1:] != after[:-1]  # the next line is not the next record
    head |= span[1:] != span[:-1]
    head |= lengths[1:] != lengths[:-1]
    bounds = [0, *(head.nonzero()[0] + 1).tolist(), len(lines)]
    for lo, hi in zip(bounds, bounds[1:]):  # a run of records at a time
        start, step = int(first[lo]), int(span[lo])
        cut = min(int(lengths[lo]), 80)
        out[lo:hi, :cut] = codes[start:start + (hi - lo) * step
                                 ].reshape(-1, step)[:, :cut]
        out[lo:hi, cut:] = ord(" ")
    return out


def parse_pdb(text: str, structure_id: str = "") -> Structure:
    """Parse PDB-format text into a Structure. Lines are str.splitlines'.

    Raises MalformedRecord for the first bad ATOM/HETATM record of MODEL 1,
    naming its first bad field; EmptyStructure with no polymer or ligand atom.
    """
    if "ATOM" not in text and "HETATM" not in text:  # no record to read
        raise EmptyStructure("no ATOM or HETATM records parsed")
    resolution = dep_date = method = None
    codes = _codes(text, text.isascii())
    starts, lengths = _lines(codes, "\r" in text)
    record = _records(codes, starts)  # ATOM/HETATM of MODEL 1
    models_seen = 0
    others = (~record).nonzero()[0]
    for i, start, length in zip(others.tolist(), starts[others].tolist(),
                                lengths[others].tolist()):
        line = text[start:start + length]
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

    rows = record.nonzero()[0]
    if not len(rows):  # nothing to read
        raise EmptyStructure("no ATOM or HETATM records parsed")
    block = _matrix(codes, rows, starts, lengths)
    del codes  # the records' rows are all that is read from here on
    keep = (block[:, 16] == ord(" ")) | (block[:, 16] == ord("A"))  # altloc
    hetero = block[:, 0] == ord("H")  # only HETATM starts with H
    polymer, ligand = keep & ~hetero, keep & hetero  # ligand: HETATM but HOH
    ligand[ligand] = (block[ligand, 17:20] != [*map(ord, "HOH")]).any(axis=1)
    columns = _columns(block, rows, lengths[rows] < 54)  # raises first
    if not (polymer | ligand).any():
        raise EmptyStructure("no ATOM or HETATM records parsed")
    serial, names, name, elements, seq, xyz = columns
    occupancy, b_factor = _read("", lambda t: _float_or(t, np.nan),
                                block[:, 54:66], 6, 2)[0].reshape(-1, 2).T
    occupancy = np.where(occupancy < 0.0, 0.0, np.fmin(occupancy, 1.0))  # NaN: 1
    b_factor = np.where(np.isnan(b_factor), 0.0, b_factor)  # unread (NaN): 0
    kept = serial[keep]
    if not (kept[1:] > kept[:-1]).all() and (
            np.diff(np.sort(kept)) == 0).any():  # repeats move up
        kept, above = kept.tolist(), {}  # taken -> <= the next free
        for i, value in enumerate(kept):
            while value in above:  # path halving: skip ahead two links
                above[value] = above.get(above[value], above[value])
                value = above[value]
            above[value], kept[i] = value + 1, value
        serial[keep] = kept
    codes = {n: code for code, n in enumerate(names.tolist())}  # shared by all
    columns = block, codes, name, seq, xyz, elements, occupancy, b_factor, serial
    chains = _chains(polymer.nonzero()[0], *columns, polymer=True)
    ligands = _chains(ligand.nonzero()[0], *columns, polymer=False)
    return Structure(structure_id, chains, resolution,
                     dep_date, method, ligands)


# A residue's sort key packs, high bits first, its chain's first-seen rank,
# its number + 1 000 (a 4-column number is -999..9999: 14 bits) and its
# insertion code + 1, 0 if blank (at most 0x110000: 21 bits).
_SEQ_SHIFT, _CHAIN_SHIFT = 21, 35


def _chains(records, block, codes, name, seq_index, xyz, elements,
            occupancy, b_factor, serial, polymer) -> tuple[Chain, ...]:
    """The chains of the records (indices in file order): chains in
    first-seen order, residues sorted by (seq_index, insertion code) with
    file order kept inside each, the first atom of each name kept. Atom
    names are name's codes in codes; elements holds the distinct element
    texts and each record's index among them. Polymer residue types
    outside the vocabulary read as UNK."""
    if not len(records):
        return ()
    chain = block[records, 21]
    runs = np.concatenate((  # file-order runs of one id, as bounds
        [0], (chain[1:] != chain[:-1]).nonzero()[0] + 1, [len(records)]))
    ids = chain[runs[:-1]].tolist()  # every id's first record heads a run
    rank = {i: r for r, i in enumerate(dict.fromkeys(ids))}  # first seen
    key = np.repeat(np.array([rank[i] for i in ids]) << _CHAIN_SHIFT,
                    runs[1:] - runs[:-1])
    part = seq_index[records]
    part += 1000
    part <<= _SEQ_SHIFT
    key |= part
    part = block[records, 26].astype(np.int64)
    part += 1
    part[part == ord(" ") + 1] = 0  # no insertion code sorts first
    key |= part
    if (key[1:] < key[:-1]).any():  # file order within a key
        by_key = np.argsort(key, kind="stable")
        records, key = records[by_key], key[by_key]
    head = np.ones(len(records), dtype=bool)
    head[1:] = key[1:] != key[:-1]
    residue = np.cumsum(head)
    residue -= 1
    code = name[records]
    kept = _first_of_each(residue * len(codes) + code)
    atoms, heads = records[kept], block[records[head]]  # each residue's first
    element, of_element = elements
    types, type_of = _distinct(heads[:, 17:20])  # each text read once
    icodes, icode_of = _distinct(heads[:, 26:27])
    chain = key[head] >> _CHAIN_SHIFT  # each residue's chain rank
    table = AtomTable(
        xyz.take(atoms, axis=0), code[kept], codes, element[of_element[atoms]],
        occupancy[atoms], b_factor[atoms], serial[atoms], residue[kept],
        object_array(r if not polymer or r in RESIDUE_INDEX else "UNK"
                     for r in map(str.strip, types))[type_of],
        seq_index[records[head]],
        object_array(None if i == " " else i for i in icodes)[icode_of],
        object_array(_texts(np.array([*rank], block.dtype), 1))[chain])
    bounds = [0, *((chain[1:] != chain[:-1]).nonzero()[0] + 1).tolist(),
              len(heads)]
    return tuple(Chain.from_table(table.chain[start], table.rows(start, stop))
                 for start, stop in zip(bounds, bounds[1:]))


def _first_of_each(keys: np.ndarray):
    """The indices of the first of each distinct value of keys, in order
    (a slice of all when no value repeats, as is usual)."""
    ordered = np.sort(keys)
    if not (ordered[1:] == ordered[:-1]).any():
        return slice(None)
    return np.sort(np.unique(keys, return_index=True)[1])


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
        _check_field("resolution", s.resolution, -999.995, 9999.995, 7)
        parts.append(f"REMARK   2 RESOLUTION. {s.resolution:7.2f} ANGSTROMS.\n")
    for chain in s.chains:
        parts += (_render("ATOM  ", chain.id, chain.table), "TER\n")
    parts += (_render("HETATM", chain.id, chain.table) for chain in s.ligands)
    return "".join(parts) + "END\n"
