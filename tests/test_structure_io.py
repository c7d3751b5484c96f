import datetime
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldkit.errors import (CoordinateOverflow, EmptyStructure,
                            FieldOverflow, FoldkitError, InvalidFilterSpec,
                            MalformedRecord, NoCompleteResidues)
from foldkit.pdb import _codes, _number, _read, parse_pdb, write_pdb
from foldkit.structure import (Atom, Chain, FilterSpec, Granularity, Method,
                               Residue, Structure, filter_structures,
                               load_filter_spec, select_granularity)
from foldkit.synth import helix_chain, random_chain, single_chain_structure
from foldkit.rng import make_rng

from foldkit.tasks import binding_site_labels

from helpers import (atom_line, parse_pdb_oracle, proximity_oracle,
                     write_pdb_oracle)

FIXTURES = Path(__file__).parent / "fixtures" / "pdb"


class TestParse:
    def test_single_atom_transcription(self):
        text = atom_line(1, "CA", "ALA", "A", 1, 1.0, 2.0, 3.0)
        s = parse_pdb(text)
        assert len(s.chains) == 1
        chain = s.chains[0]
        assert chain.id == "A"
        assert len(chain.residues) == 1
        res = chain.residues[0]
        assert res.res_type == "ALA" and res.seq_index == 1
        assert len(res.atoms) == 1
        assert np.allclose(res.atoms[0].position, [1.0, 2.0, 3.0])

    def test_hetero_only_is_not_empty(self):
        text = atom_line(1, "ZN", "ZN", "A", 1, 0.0, 0.0, 0.0,
                         element="ZN", record="HETATM")
        s = parse_pdb(text)
        assert s.num_residues == 0
        ((ligand,),) = [c.residues for c in s.ligands]
        assert (s.ligands[0].id, ligand.res_type, ligand.seq_index,
                len(ligand.atoms)) == ("A", "ZN", 1, 1)

    def test_empty_structure_raises(self):
        with pytest.raises(EmptyStructure):
            parse_pdb("REMARK nothing here\nEND\n")

    def test_altloc_b_dropped(self):
        lines = [
            atom_line(1, "N", "ALA", "A", 1, 0.0, 0.0, 0.0),
            atom_line(2, "CA", "ALA", "A", 1, 1.0, 0.0, 0.0, altloc="A"),
            atom_line(3, "CA", "ALA", "A", 1, 9.0, 9.0, 9.0, altloc="B"),
            atom_line(4, "N", "GLY", "A", 2, 2.0, 0.0, 0.0),
            atom_line(5, "CA", "GLY", "A", 2, 3.0, 0.0, 0.0),
            atom_line(6, "N", "SER", "A", 3, 4.0, 0.0, 0.0),
            atom_line(7, "CA", "SER", "A", 3, 5.0, 0.0, 0.0),
        ]
        s = parse_pdb("\n".join(lines))
        # independent minimal reading of the same fixture: keep ' '/'A' rows
        expected = {}
        for raw in lines:
            if raw[16] == "B":
                continue
            expected.setdefault(int(raw[22:26]), []).append(raw[12:16].strip())
        assert len(s.chains[0].residues) == 3
        for res in s.chains[0].residues:
            assert sorted(a.name for a in res.atoms) == sorted(expected[res.seq_index])
        ca1 = s.chains[0].residues[0].atom("CA")
        assert np.allclose(ca1.position, [1.0, 0.0, 0.0])

    def test_malformed_atom_line(self):
        with pytest.raises(MalformedRecord) as err:
            parse_pdb("ATOM  bad line\n")
        assert err.value.line_no == 1

    def test_bad_coordinates_are_malformed(self):
        good = atom_line(1, "CA", "ALA", "A", 1, 1.0, 2.0, 3.0)
        bad = good[:30] + "  xx.xxx" + good[38:]
        with pytest.raises(MalformedRecord) as err:
            parse_pdb(good + "\n" + bad)
        assert err.value.line_no == 2

    def test_waters_dropped(self):
        lines = [
            atom_line(1, "CA", "ALA", "A", 1, 0.0, 0.0, 0.0),
            atom_line(2, "O", "HOH", "W", 1, 5.0, 5.0, 5.0, record="HETATM"),
            atom_line(3, "ZN", "ZN", "W", 2, 6.0, 6.0, 6.0, record="HETATM"),
        ]
        s = parse_pdb("\n".join(lines))
        assert s.hetero_codes == {"ZN"}

    def test_header_remark_expdta(self):
        text = "\n".join([
            "HEADER    HYDROLASE                               12-JAN-04   1ABC",
            "EXPDTA    X-RAY DIFFRACTION",
            "REMARK   2 RESOLUTION.    1.74 ANGSTROMS.",
            atom_line(1, "CA", "ALA", "A", 1, 0.0, 0.0, 0.0),
        ])
        s = parse_pdb(text)
        assert s.resolution == pytest.approx(1.74)
        assert s.deposition_date == datetime.date(2004, 1, 12)
        assert s.method is Method.XRAY
        assert s.id == "1ABC"

    def test_resolution_not_applicable(self):
        """No finite number: no resolution, which write_pdb then omits."""
        for value in ("NOT APPLICABLE.", "NAN ANGSTROMS.", "inf ANGSTROMS.",
                      "1e400 ANGSTROMS."):
            text = "\n".join([
                f"REMARK   2 RESOLUTION. {value}",
                atom_line(1, "CA", "ALA", "A", 1, 0.0, 0.0, 0.0),
            ])
            s = parse_pdb(text)
            assert s.resolution is None
            assert "RESOLUTION" not in write_pdb(s)
            assert parse_pdb_oracle(text) == s

    def test_garbled_header_date_ignored(self):
        text = "\n".join([
            "HEADER    JUNK                                    99-XXX-??   1ZZZ",
            atom_line(1, "CA", "ALA", "A", 1, 0.0, 0.0, 0.0),
        ])
        s = parse_pdb(text)
        assert s.deposition_date is None
        assert s.id == "1ZZZ"

    def test_model_1_only(self):
        text = "\n".join([
            "MODEL        1",
            atom_line(1, "CA", "ALA", "A", 1, 0.0, 0.0, 0.0),
            "ENDMDL",
            "MODEL        2",
            atom_line(2, "CA", "ALA", "A", 2, 9.0, 9.0, 9.0),
            "ENDMDL",
        ])
        s = parse_pdb(text)
        assert s.num_residues == 1

    def test_non_canonical_maps_to_unk(self):
        s = parse_pdb(atom_line(1, "CA", "MSE", "A", 1, 0.0, 0.0, 0.0))
        assert s.chains[0].residues[0].res_type == "UNK"

    def test_residues_sorted_by_seq_and_icode(self):
        lines = [
            atom_line(1, "CA", "ALA", "A", 2, 0.0, 0.0, 0.0),
            atom_line(2, "CA", "GLY", "A", 1, 1.0, 0.0, 0.0),
            atom_line(3, "CA", "SER", "A", 1, 2.0, 0.0, 0.0, icode="A"),
        ]
        s = parse_pdb("\n".join(lines))
        keys = [(r.seq_index, r.insertion_code or "") for r in s.chains[0].residues]
        assert keys == sorted(keys)

    def test_peak_memory_is_under_8x_the_text(self):
        """One parse of 20 000 ASCII records peaks under 8x the text under
        tracemalloc: ASCII lines are held as a byte per character."""
        names = ("N", "CA", "C", "O")
        text = "\n".join(atom_line(i + 1, names[i % 4], "ALA", "A", i // 4 + 1,
                                   i % 97 * 0.5, 1.0, 2.0) for i in range(20000))
        tracemalloc.start()
        try:
            parse_pdb(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * len(text)

    @settings(max_examples=200, deadline=None)
    @given(st.text(min_size=0, max_size=400))
    def test_fuzz_never_crashes(self, text):
        try:
            parse_pdb(text)
        except FoldkitError:
            pass


def _atom_bits(a):
    return (a.name, a.element, a.position.dtype.str, a.position.shape,
            a.position.tobytes(), a.occupancy.hex(), a.b_factor.hex(),
            a.serial)


def _parse_outcome(parse, text):
    """Every field bit for bit (positions as bytes, NaN occupancies equal),
    or the error's type, line number and message."""
    try:
        s = parse(text)
    except FoldkitError as exc:
        return type(exc), getattr(exc, "line_no", None), str(exc)
    return (s.id, s.resolution, s.deposition_date, s.method,
            *([(c.id, [(r.res_type, r.seq_index, r.insertion_code,
                        [_atom_bits(a) for a in r.atoms]) for r in c.residues])
               for c in chains] for chains in (s.chains, s.ligands)))


def _assert_matches_oracle(text):
    assert (_parse_outcome(parse_pdb, text)
            == _parse_outcome(parse_pdb_oracle, text))


_NON_ATOM = ["MODEL        1", "MODEL        2", "ENDMDL", "TER", "END", "",
             "EXPDTA    X-RAY DIFFRACTION",
             "REMARK   2 RESOLUTION.    2.10 ANGSTROMS.",
             "HEADER    HYDROLASE                               12-JAN-04   1ABC"]
# (first column, replacement): malformed fields, then ones read leniently
_MALFORMED = [(6, "  x12"), (12, "    "), (22, " 1a "), (30, " 1.2.3  "),
              (38, "     nan"), (46, "    -inf")]
_LENIENT = [(54, "      "), (54, "  x.xx"), (54, " -0.50"), (54, "  1.50"),
            (54, "   nan"), (60, "      "), (60, "abcdef"), (60, "   inf"),
            (76, "  ")]


_NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])


@st.composite
def _pdb_texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 25))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(_NON_ATOM)))
            continue
        line = atom_line(
            draw(st.integers(1, 12)),
            draw(st.sampled_from(["N", "CA", "C", "O", "CB", "ZN", "HG12"])),
            draw(st.sampled_from(["ALA", "GLY", "MSE", "HOH", "ZN", "LIG"])),
            draw(st.sampled_from("AB ")),
            draw(st.sampled_from([-3, 1, 2, 5, 9])),
            *(draw(st.floats(-999, 9999)) for _ in range(3)),
            altloc=draw(st.sampled_from(" ABC")),
            icode=draw(st.sampled_from("  AB")),
            occ=draw(st.floats(-1, 2) | _NON_FINITE),
            b=draw(st.floats(0, 99) | _NON_FINITE),
            element=draw(st.sampled_from([None, "", "ZN"])),
            record=draw(st.sampled_from(["ATOM", "ATOM", "HETATM"])))
        if draw(st.integers(0, 3)) == 0:
            start, field = draw(st.sampled_from(_LENIENT))
            line = line[:start] + field + line[start + len(field):]
        if draw(st.integers(0, 40)) == 0:
            start, field = draw(st.sampled_from(_MALFORMED))
            line = line[:start] + field + line[start + len(field):]
        if draw(st.integers(0, 20)) == 0:
            line = line[:draw(st.integers(40, 79))]
        lines.append(line)
    return "\n".join(lines)


def _malformed_at_scale():
    """(text, line number): 500 records, one with a malformed field at the
    first, a middle, the last or an altloc-B record."""
    names = ("N", "CA", "C", "O")
    lines = [_NON_ATOM[-1]] + [
        atom_line(i + 1, names[i % 4], "ALA", "A", i // 4 + 1, i / 2, 1.0,
                  -2.0, altloc="B" if i == 334 else " ")
        for i in range(500)]
    for start, field in _MALFORMED:
        for i in (1, 252, 500, 335):
            bad = list(lines)
            bad[i] = bad[i][:start] + field + bad[i][start + len(field):]
            yield "\n".join(bad), i + 1


def _odd_numeric_fields():
    """One record, alone and after a good one, per numeric field and text
    that int() or float() reads or refuses but printf does not write."""
    good = atom_line(1, "CA", "ALA", "A", 1, 1.0, 2.0, 3.0, occ=0.5, b=7.0)
    ints = ["1_0", "\u0661\u0662", "\u0131\u0132", "1e1", "+12", "\t12",
            "1\x002", "12\x00", "", "\x00", "-3"]
    floats = ["1_0.5", "\u0661\u0662.\u0665", "\u0131.\u0132", "1.5e1",
              "+1.5", "\t1.5", "1.\x005", "1.5\x00", "", "-0.0", "1e999"]
    for start, stop, texts in ((6, 11, ints), (22, 26, ints),
                               (30, 38, floats), (38, 46, floats),
                               (46, 54, floats), (54, 60, floats),
                               (60, 66, floats)):
        for field in texts:
            line = good[:start] + field.rjust(stop - start) + good[stop:]
            yield line
            yield good + "\n" + line


class TestParseOracle:
    """parse_pdb against the per-line parser it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(_pdb_texts())
    def test_matches_oracle(self, text):
        _assert_matches_oracle(text)

    def test_fixtures_and_written_structures(self):
        for path in sorted(FIXTURES.rglob("*.pdb")):
            text = path.read_text()
            _assert_matches_oracle(text)
            assert parse_pdb(text) == parse_pdb_oracle(text)
        chain = random_chain(40, make_rng(11))
        _assert_matches_oracle(write_pdb(single_chain_structure(chain)))

    def test_first_malformed_record_at_scale(self):
        """500 records with one malformed field at the first, a middle, the
        last and an altloc-B record: the same record and message as the
        per-line oracle."""
        for text, line_no in _malformed_at_scale():
            assert (_parse_outcome(parse_pdb, text)[:2]
                    == (MalformedRecord, line_no))
            _assert_matches_oracle(text)

    def test_first_malformed_line_in_file_order_wins(self):
        good = atom_line(1, "CA", "ALA", "A", 1, 1.0, 2.0, 3.0)
        nan_coords = good[:30] + "     nan" + good[38:]
        bad_serial = good[:6] + "  x12" + good[11:]
        for first, second in ((nan_coords, bad_serial), (nan_coords, good[:50]),
                              (bad_serial, nan_coords)):
            text = "\n".join([good, first, second])
            with pytest.raises(MalformedRecord) as err:
                parse_pdb(text)
            assert err.value.line_no == 2
            _assert_matches_oracle(text)
        # one record bad in two fields names the first in column order
        both = bad_serial[:30] + "     nan" + bad_serial[38:]
        text = "\n".join([good, both, nan_coords])
        with pytest.raises(MalformedRecord) as err:
            parse_pdb(text)
        assert (err.value.line_no, err.value.reason) == (
            2, "bad serial: invalid literal for int() with base 10: '  x12'")
        _assert_matches_oracle(text)

    def test_malformed_altloc_b_line_raises(self):
        good = atom_line(1, "CA", "ALA", "A", 1, 1.0, 2.0, 3.0, altloc="A")
        skipped = atom_line(2, "CA", "ALA", "A", 1, 9.0, 9.0, 9.0, altloc="B")
        text = good + "\n" + skipped[:38] + "   x.xxx" + skipped[46:]
        with pytest.raises(MalformedRecord) as err:
            parse_pdb(text)
        assert err.value.line_no == 2
        _assert_matches_oracle(text)

    def test_malformed_lines_after_model_2_ignored(self):
        good = atom_line(1, "CA", "ALA", "A", 1, 1.0, 2.0, 3.0)
        text = "\n".join(["MODEL        1", good, "ENDMDL", "MODEL        2",
                          "ATOM  bad line", good[:30] + "     inf" + good[38:]])
        assert parse_pdb(text).num_residues == 1
        _assert_matches_oracle(text)

    def test_non_finite_occupancy_and_b_factor_read_as_defaults(self):
        zn = ("HETATM    1 ZN    ZN A   1       1.000   2.000   3.000"
              "   nan   nan          ZN")
        good = atom_line(2, "CA", "ALA", "A", 1, 1.0, 2.0, 3.0, occ=0.5, b=7.0)
        cases = [(zn, 0.0)] + [(good[:54] + occ + b + good[66:], expected_b)
                               for occ, b, expected_b in (
                                   ("   inf", "  -inf", 0.0),
                                   ("  -inf", " 1e999", 0.0),
                                   ("   nan", "  7.00", 7.0))]
        for line, expected_b in cases:
            s = parse_pdb(line)
            assert s == parse_pdb(line)
            (atom,) = (s.ligands or s.chains)[0].residues[0].atoms
            assert (atom.occupancy, atom.b_factor) == (1.0, expected_b)
            assert "nan" not in write_pdb(s) and "inf" not in write_pdb(s)
            _assert_matches_oracle(line)

    def test_numeric_fields_read_as_int_and_float_do(self):
        """Every numeric field holding text outside printf's shape:
        underscores, Unicode digits, exponents, signs, tabs, NUL bytes and
        blanks, alone and after a good record."""
        for text in _odd_numeric_fields():
            _assert_matches_oracle(text)

    def test_code_point_matrix_reads_as_byte_matrix_does(self):
        """The two cases above again with a non-ASCII line appended, so the
        records are read from code points rather than bytes."""
        tail = "\nREMARK  99 \u00e9"
        texts = [*_odd_numeric_fields(), *(t for t, _ in _malformed_at_scale())]
        assert any(text.isascii() for text in texts)
        for text in texts:
            _assert_matches_oracle(text + tail)

    def test_text_columns_are_read_exactly(self):
        """Non-ASCII and NUL text in the name, residue, chain and element
        columns; names that strip alike; unusual tags; short lines; records
        after a second MODEL; every line break splitlines knows."""
        def record(name_field, res="ALA", chain="A", seq=1, tag="ATOM  ",
                   tail="           C"):
            return (f"{tag}    1 {name_field} {res} {chain}{seq:4d}    "
                    f"   1.000   2.000   3.000  1.00  0.00{tail}")
        texts = [
            "\n".join([record(" C\u03b1 ", "\u00c5LA", "\u03b2"),
                       record(" N  ", "GLY", "\U0001d538", tail=" \u00c5 "),
                       record("CA\x00\x00"), record(" CA\x00", tail=""),
                       record("CA\x00\x00", seq=2, tail=" " * 10 + "\x00\x00")]),
            "\n".join([record(" CA "), record("CA  "), record(" CA ", seq=2),
                       record("CA  ", seq=3), record("  CA", seq=3)]),
            "\n".join([record(" CA ", tag=" ATOM "), record(" N  ", tag="ATOM\t"),
                       record(" O  ", tag="HETATM", res="HOH"),
                       record(" C  ", tag="ATOM", seq=2)]),
            "\n".join(["MODEL        1", record(" CA "), "ENDMDL",
                       "MODEL        2", record(" N  ", seq=2),
                       "HEADER    LATE                                    "
                       "12-JAN-04   9XYZ", "ATOM  bad"]),
        ]
        full = record(" CA ", tail=" " * 11 + "C  past column 80")
        texts += ["\n".join([full, full[:length]]) for length in
                  (53, 54, 55, 60, 65, 66, 70, 76, 77, 78, 79, 80, 81, 95)]
        texts += [sep.join([record(" N  "), record(" CA ", seq=2),
                            record(" C  ", seq=3)])
                  for sep in ("\r\n", "\r", "\x0c", "\x1c", "\u2028")]
        texts.append("\r\n".join([record(" N  "), "ATOM  1", record(" C  ")]))
        for text in texts:
            _assert_matches_oracle(text)
        s, oracle = parse_pdb(texts[1]), parse_pdb_oracle(texts[1])
        assert s.chains[0].table.codes == {"CA": 0}
        assert _columns(s.chains[0].table) == _columns(oracle.chains[0].table)

    def test_wrapped_serials_renumber_in_linear_time(self):
        """Serials that wrap, as in large systems: each repeat moves past
        those taken, as the oracle's walk does, in near-linear time."""
        names = ("N", "CA", "C", "O")
        lines = [atom_line(i % 20000 + 1, names[i % 4], "ALA", "AB"[i // 20000],
                           i % 20000 // 4 + 1, i % 97 * 0.5, 1.0, 2.0)
                 for i in range(40000)]
        start = time.perf_counter()
        s = parse_pdb("\n".join(lines))
        assert time.perf_counter() - start < 2.0
        assert s.table.serial.tolist() == list(range(1, 40001))
        small = [atom_line(serial, names[i % 4], "ALA", "A", i // 4 + 1,
                           float(i), 0.0, 0.0, altloc=" B"[i == 6],
                           record="HETATM" if i == 9 else "ATOM")
                 for i, serial in enumerate((5, 5, 5, 3, 4, 6, 5, 1, 2, 2, 7))]
        _assert_matches_oracle("\n".join(small))

    def test_hetatm_only_file(self):
        lines = [atom_line(i, name, res, "Z", i, i * 2.0, 0.0, 0.0,
                           element=element, record="HETATM")
                 for i, (name, res, element) in enumerate(
                     [("ZN", "ZN", "ZN"), ("O", "HOH", "O"), ("C1", "LIG", ""),
                      ("ZN", "ZN", "ZN")], start=1)]
        s = parse_pdb("\n".join(lines))
        assert s.chains == ()
        assert [(r.res_type, r.seq_index, a.element) for c in s.ligands
                for r in c.residues for a in r.atoms] == [
            ("ZN", 1, "ZN"), ("LIG", 3, "C"), ("ZN", 4, "ZN")]
        _assert_matches_oracle("\n".join(lines))
        header = "\n".join(_NON_ATOM)  # no record, and a water alone
        for text in (lines[1], header, header + "\n" + lines[1]):
            with pytest.raises(EmptyStructure) as err:
                parse_pdb(text)
            assert str(err.value) == "no ATOM or HETATM records parsed"
            _assert_matches_oracle(text)


def _columns(table):
    """Every column of an AtomTable: names as strings, floats as bits."""
    names = list(table.codes)
    return (table.xyz.dtype.str, table.xyz.shape, table.xyz.tobytes(),
            [names[code] for code in table.names.tolist()],
            table.element.tolist(), table.occupancy.tobytes(),
            table.b_factor.tobytes(), table.serial.tolist(),
            table.owner.tolist(), table.res_type.tolist(),
            table.seq_index.tolist(), table.icode.tolist(),
            table.chain.tolist())


class TestParsedTable:
    """The parser's columns against the object model built from them."""

    @settings(max_examples=200, deadline=None)
    @given(_pdb_texts())
    def test_table_equals_gather_of_its_residues(self, text):
        try:
            s, oracle = parse_pdb(text), parse_pdb_oracle(text)
        except FoldkitError:
            return
        assert len(s.chains) == len(oracle.chains)
        for chain, want in zip(s.chains, oracle.chains):
            table = _columns(chain.table)
            assert table == _columns(Chain(chain.id, chain.residues).table)
            assert table == _columns(want.table)
        assert _columns(s.table) == _columns(
            Structure(s.id, oracle.chains).table)

    def test_chains_share_one_name_code_dict(self):
        s = parse_pdb((FIXTURES / "dimer.pdb").read_text())
        assert s.chains[0].table.codes is s.chains[1].table.codes

    def test_ligands_share_the_sorted_name_codes(self):
        """Polymer and ligand tables share one dict: every atom name read,
        numbered in sorted order."""
        text = (FIXTURES / "helix_zn.pdb").read_text()
        s = parse_pdb(text)
        codes = s.chains[0].table.codes
        assert s.ligands[0].table.codes is codes
        read = {line[12:16].strip() for line in text.splitlines()
                if line.startswith(("ATOM", "HETATM"))}
        assert codes == {name: i for i, name in enumerate(sorted(read))}


class TestWrite:
    def test_single_atom_fixed_width(self):
        s = parse_pdb(atom_line(7, "CA", "ALA", "A", 1, 1.0, 2.0, 3.0))
        out = write_pdb(s)
        row = next(l for l in out.splitlines() if l.startswith("ATOM"))
        assert row[6:11] == "    7"
        assert row[12:16] == " CA "
        assert row[17:20] == "ALA"
        assert row[21] == "A"
        assert row[30:38] == "   1.000"
        assert row[38:46] == "   2.000"
        assert row[46:54] == "   3.000"

    def test_round_trip_50_residues(self):
        chain = random_chain(50, make_rng(1))
        s = single_chain_structure(chain)
        back = parse_pdb(write_pdb(s))
        assert back.num_residues == 50
        for r1, r2 in zip(chain.residues, back.chains[0].residues):
            assert r1.res_type == r2.res_type
            assert [a.name for a in r1.atoms] == [a.name for a in r2.atoms]
            for a1, a2 in zip(r1.atoms, r2.atoms):
                assert np.max(np.abs(a1.position - a2.position)) <= 5e-4

    def test_parse_write_parse_idempotent(self):
        text = "\n".join([
            "HEADER    TRANSFERASE                             09-AUG-26   2XYZ",
            "EXPDTA    SOLUTION NMR",
            "REMARK   2 RESOLUTION.    2.10 ANGSTROMS.",
            atom_line(1, "N", "ALA", "A", 1, 0.123, -4.5, 6.789, b=32.1),
            atom_line(2, "CA", "ALA", "A", 1, 1.0, 2.0, 3.0, b=20.0),
            atom_line(3, "ZN", "ZN", "B", 1, 4.0, 4.0, 4.0,
                      element="ZN", record="HETATM"),
        ])
        first = parse_pdb(text)
        second = parse_pdb(write_pdb(first))
        assert parse_pdb(write_pdb(second)) == second

    def test_coordinate_overflow(self):
        chain = random_chain(5, make_rng(2))
        s = single_chain_structure(chain)
        moved = parse_pdb(write_pdb(s))  # normalise
        import dataclasses
        atom = moved.chains[0].residues[0].atoms[0]
        bad = dataclasses.replace(atom, position=np.array([12000.0, 0.0, 0.0]))
        res = dataclasses.replace(moved.chains[0].residues[0],
                                  atoms=(bad,) + moved.chains[0].residues[0].atoms[1:])
        chain2 = dataclasses.replace(moved.chains[0], residues=(res,) + moved.chains[0].residues[1:])
        s2 = dataclasses.replace(moved, chains=(chain2,))
        with pytest.raises(CoordinateOverflow):
            write_pdb(s2)


# each edge of the coordinate field, one ulp either side, and the values
# whose rounding or sign is easy to get wrong
_EDGE_COORDS = [math.nextafter(edge, toward) for edge in (-999.9995, 9999.9995)
                for toward in (-math.inf, edge, math.inf)] + [
    -0.0, -0.0004, 0.0004, math.nan, math.inf, -math.inf]
_COORDS = st.one_of(st.floats(-999.999, 9999.999), st.floats(-5.0, 5.0),
                    st.sampled_from(_EDGE_COORDS))
_FIT = st.floats(-99.99, 999.99)  # values that fit the %6.2f columns


@st.composite
def _structures(draw):
    """Hand-made structures whose every field fits its columns; only the
    coordinates may overflow."""
    shape = draw(st.lists(st.lists(st.integers(0, 3), max_size=3),
                          max_size=3))
    n_het = draw(st.integers(0, 2))
    m = sum(map(sum, shape)) + n_het
    serials = iter(draw(st.lists(st.integers(-9999, 99999), min_size=m,
                                 max_size=m, unique=True)))

    def atom():
        return Atom(draw(st.text("CNOSH1'", min_size=1, max_size=4)),
                    draw(st.text("CNOSZ", max_size=2)),
                    [draw(_COORDS) for _ in range(3)], draw(_FIT),
                    draw(_FIT), serial=next(serials))

    chains = tuple(Chain(cid, tuple(
        Residue(draw(st.sampled_from(["ALA", "TRP", "MASK", "UNK", "ZN", "A"])),
                draw(st.integers(-999, 9999)),
                draw(st.sampled_from([None, "A", "Z"])),
                tuple(atom() for _ in range(n_atoms)))
        for n_atoms in residues)) for cid, residues in zip("AB1", shape))
    ligands = tuple(Chain(draw(st.sampled_from("ZB ")), (Residue(
        draw(st.sampled_from(["", "ZN", "K", "ADP", "HOH"])),
        draw(st.integers(-999, 9999)), draw(st.sampled_from([None, "A"])),
        (atom(),)),)) for _ in range(n_het))
    return Structure(draw(st.sampled_from(["", "1ABC", "LONGER"])), chains,
                     draw(st.sampled_from([None, 1.8])), None,
                     draw(st.sampled_from([None, Method.NMR])), ligands)


def _written(write, s):
    """write(s), or the type and message of the FoldkitError it raised."""
    try:
        return write(s)
    except FoldkitError as exc:
        return type(exc), str(exc)


class TestWriteOracle:
    """write_pdb against the per-atom writer it replaced: the same bytes,
    or the same error and message."""

    @settings(max_examples=60, deadline=None)
    @given(_structures())
    def test_matches_oracle(self, s):
        want = _written(write_pdb_oracle, s)
        assert _written(write_pdb, s) == want
        if isinstance(want, str):
            try:
                parsed = parse_pdb(want)  # a table-backed structure
            except EmptyStructure:  # no atom, or only waters
                return
            assert write_pdb(parsed) == write_pdb_oracle(parsed)

    @pytest.mark.parametrize("value", _EDGE_COORDS)
    def test_coordinate_edges(self, value):
        for xyz in ([value, 1.0, 2.0], [1.0, 2.0, value]):
            s = single_chain_structure(Chain("A", (Residue("ALA", 1, None, (
                Atom("N", "N", [0.0, 0.0, 0.0]), Atom("CA", "C", xyz))),)))
            assert _written(write_pdb, s) == _written(write_pdb_oracle, s)

    def test_fixtures_and_generated_chains(self):
        structures = [parse_pdb(path.read_text())
                      for path in sorted(FIXTURES.rglob("*.pdb"))]
        structures.append(single_chain_structure(
            random_chain(60, make_rng(12))))
        for s in structures:
            assert write_pdb(s) == write_pdb_oracle(s)


# (format, width, decimals, lo, hi): a value fits if lo < value < hi
_NUMBER_FIELDS = [("%5d", 5, 0, -10000, 100000), ("%4d", 4, 0, -1000, 10000),
                  ("%8.3f", 8, 3, -999.9995, 9999.9995),
                  ("%6.2f", 6, 2, -99.995, 999.995)]


def _fixed_point(decimals, lo, hi):
    """Floats that fit (lo, hi), drawn at and around the values whose
    |v| * 10**decimals is a half: decimal ties x.5 / 10**decimals, exact
    binary halves odd / 2**(decimals + 1), their neighbours, -0.0,
    negatives that round to zero, and each bound one ulp inside."""
    scale = 10 ** decimals
    tie = st.integers(int(lo * scale), int(hi * scale)).map(
        lambda k: (k + 0.5) / scale)
    half = st.integers(int(lo * 2 ** (decimals + 1)),
                       int(hi * 2 ** (decimals + 1))).map(
        lambda k: (2 * k + 1) / 2 ** (decimals + 1))
    near = st.one_of(tie, half).flatmap(lambda v: st.sampled_from(
        [v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)]))
    return st.one_of(
        near, st.floats(lo, hi), st.floats(-0.5 / scale, 0.0),
        st.sampled_from([-0.0, 0.0, math.nextafter(lo, math.inf),
                         math.nextafter(hi, -math.inf)])).filter(
        lambda v: lo < v < hi)


class TestNumberColumns:
    """The writer's number columns against % formatting, byte for byte."""

    @pytest.mark.parametrize("fmt, width, decimals, lo, hi", _NUMBER_FIELDS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_matches_printf(self, fmt, width, decimals, lo, hi, data):
        values = data.draw(st.lists(
            _fixed_point(decimals, lo, hi) if decimals else
            st.integers(lo + 1, hi - 1), min_size=1, max_size=40))
        got = _number(np.array(values), width, decimals)
        assert got.shape == (len(values), width)
        assert got.tobytes().decode() == fmt * len(values) % tuple(values)

    @pytest.mark.parametrize("fmt, width, decimals, lo, hi",
                             _NUMBER_FIELDS[:2])
    def test_every_integer_that_fits(self, fmt, width, decimals, lo, hi):
        values = np.arange(lo + 1, hi)
        assert _number(values, width, decimals).tobytes().decode() == (
            fmt * len(values) % tuple(values.tolist()))


def _read_texts(convert, texts, width, decimals=0, ascii=None):
    """_read over the fields texts, as bytes if ASCII, else code points,
    unless ascii says which: the values and the first rejected row."""
    text = "".join(texts)
    codes = _codes(text, text.isascii() if ascii is None else ascii)
    return _read("field", convert, codes.reshape(-1, width), width, decimals)


def _bits(values):
    return np.asarray(values, np.float64).view(np.int64).tolist()


class TestNumberReader:
    """The reader's digit columns against int() and float(), bit for bit."""

    @pytest.mark.parametrize("width, lo, hi", [(5, -9999, 99999),
                                               (4, -999, 9999)])
    def test_every_integer_that_fits(self, width, lo, hi):
        texts = ["%*d" % (width, v) for v in range(lo, hi + 1)]
        for ascii in (True, False):
            got, fault = _read_texts(int, texts, width, ascii=ascii)
            assert fault is None
            assert got.dtype == np.int64
            assert got.tolist() == list(range(lo, hi + 1))

    @pytest.mark.parametrize("fmt, width, decimals, lo, hi",
                             _NUMBER_FIELDS[2:])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_matches_float(self, fmt, width, decimals, lo, hi, data):
        texts = [fmt % v for v in data.draw(st.lists(
            _fixed_point(decimals, lo, hi), min_size=1, max_size=40))]
        got, fault = _read_texts(float, texts, width, decimals)
        assert fault is None
        assert _bits(got) == _bits(list(map(float, texts)))

    @pytest.mark.parametrize("fmt, width, decimals, lo, hi",
                             _NUMBER_FIELDS[2:])
    def test_random_and_signed_zero_fields(self, fmt, width, decimals, lo, hi):
        """Random fields, decimal ties rounded by printf, and -0.000/-0.00,
        which must read as -0.0."""
        rng = make_rng(18)
        scale = 10 ** decimals
        ties = (rng.integers(int(lo * scale), int(hi * scale), 2000) + 0.5) / scale
        values = [*rng.uniform(lo, hi, 20000), *ties, -0.0, 0.0, -1e-9]
        texts = [fmt % v for v in values if lo < v < hi]
        assert fmt % -0.0 in texts
        for ascii in (True, False):
            got, fault = _read_texts(float, texts, width, decimals, ascii)
            assert fault is None
            assert _bits(got) == _bits(list(map(float, texts)))

    @pytest.mark.parametrize("convert, width, decimals, odd", [
        (float, 8, 3, ["+1.5", "1.5e1", "1_0.5", "\t1.5", "\u0661.\u0665",
                       "1 2.5", "- 1.5", "--1.5", "1-2.5", "1,500"]),
        (float, 6, 2, ["+1.5", "1.5e1", "1_0.5", "\t1.5", "\u0661.\u0665",
                       "1 2.5", "- 1.5", "--1.5", "1-2.5", "1,50"]),
        (int, 5, 0, ["+15", "1e1", "1_0", "\t12", "\u0661\u0662", "1 2",
                     "- 12", "--12", "1-2"])])
    def test_odd_rows_stay_in_place(self, convert, width, decimals, odd):
        """A 500-field block of printf's fields with a field of another
        shape at the first, a middle and the last row: each row keeps its
        own value, or the first row (0) is reported with the message
        convert raises on that field."""
        fmt = f"%{width}.{decimals}f" if decimals else f"%{width}d"
        rng = make_rng(19)
        block = [fmt % (v if decimals else int(v)) for v in rng.uniform(
            -9.0, 99.0, 500)]
        for field in odd:
            texts = list(block)
            for row in (0, 250, 499):
                texts[row] = field.rjust(width)
            try:
                want = list(map(convert, texts))
            except ValueError as exc:
                _, fault = _read_texts(convert, texts, width, decimals)
                assert fault == (0, f"bad field: {exc}")
                continue
            got, fault = _read_texts(convert, texts, width, decimals)
            assert fault is None
            assert got.dtype == (np.float64 if decimals else np.int64)
            assert _bits(got) == _bits(want)


# non-ASCII atom names, chain id and ligand code, each of which the parser
# keeps, so the writer must render them as code points
_NON_ASCII_PDB = "\n".join([
    atom_line(1, "N", "ALA", "\u03a9", 1, 0.0, 0.0, 0.0),
    atom_line(2, "C\u03b1", "ALA", "\u03a9", 1, 1.458, 0.0, 0.0, element="C"),
    atom_line(3, "C\u00e91\u2032", "ALA", "\u03a9", 1, 2.0, 1.4, -0.0004,
              element="C"),
    atom_line(4, "ZN", "\u00d1I", "B", 501, 5.0, 5.0, 5.0, element="ZN",
              record="HETATM")]) + "\n"


class TestWriteText:
    """Text fields the Hypothesis structures do not draw: non-ASCII
    characters and empty or one-character elements."""

    def test_non_ascii_fields_round_trip(self):
        s = parse_pdb(_NON_ASCII_PDB)
        text = write_pdb(s)
        assert text == write_pdb_oracle(s)
        again = parse_pdb(text)
        assert [c.id for c in again.chains] == ["\u03a9"]
        atoms = again.chains[0].residues[0].atoms
        assert [a.name for a in atoms] == ["N", "C\u03b1", "C\u00e91\u2032"]
        assert math.copysign(1.0, atoms[2].position[2]) == -1.0  # -0.000
        assert [(c.id, r.res_type, r.seq_index, a.name) for c in again.ligands
                for r in c.residues for a in r.atoms] == [
            ("B", "\u00d1I", 501, "ZN")]
        assert write_pdb(again) == text

    @pytest.mark.parametrize("name, res_type", [  # bytes, code points
        ("CA", "ALA"), ("C\u03b1", "ALA"), ("CA", "\u00c5LA")])
    def test_empty_and_short_elements(self, name, res_type):
        atoms = tuple(Atom(name, element, [float(i), 0.0, 0.0], serial=i)
                      for i, element in enumerate(["", "C", "ZN", ""]))
        s = single_chain_structure(Chain("A", (Residue(res_type, 1, None,
                                                       atoms),)))
        text = write_pdb(s)
        assert text == write_pdb_oracle(s)
        assert [line[76:78] for line in text.splitlines()[1:5]] == [
            "  ", " C", "ZN", "  "]


def _one_atom(chain_id="A", seq_index=1, icode=None, res_type="ALA", **atom):
    fields = dict(name="CA", element="C", position=[1.0, 2.0, 3.0])
    fields.update(atom)
    return Structure("X", (Chain(chain_id, (Residue(
        res_type, seq_index, icode, (Atom(**fields),)),)),))


def _ligand(atom, code):
    """A structure of one ligand residue of one atom, in chain Z."""
    return Structure("X", (), ligands=(
        Chain("Z", (Residue(code, 1, None, (atom,)),)),))


class TestFieldOverflow:
    @pytest.mark.parametrize("s, message", [
        (_one_atom(serial=123456), "serial 123456 "),
        (_one_atom(serial=-10000), "serial -10000 "),
        (_one_atom(seq_index=12345), "residue number 12345 "),
        (_one_atom(seq_index=-1000), "residue number -1000 "),
        (_one_atom(chain_id="AB"), "chain id 'AB' "),
        (_one_atom(chain_id=""), "chain id '' "),
        (_one_atom(icode="AB"), "insertion code 'AB' "),
        (_one_atom(occupancy=1000.0), "occupancy 1000.0 "),
        (_one_atom(occupancy=math.nan), "occupancy nan "),
        (_one_atom(b_factor=-100.0), "b-factor -100.0 "),
        (_one_atom(b_factor=999.995), "b-factor 999.995 "),
        (_ligand(Atom("C1", "C", [0.0, 0.0, 0.0]), "ABCD"),
         "residue name 'ABCD' "),
        (_ligand(Atom("ZN", "ZN", [0.0, 0.0, 0.0], serial=100000), "ZN"),
         "serial 100000 "),
        (_one_atom(name="CA123"), "atom name 'CA123' "),
        (_one_atom(element="CAX"), "element 'CAX' "),
        (_one_atom(res_type="ABCD"), "residue name 'ABCD' "),
        (_one_atom(name=None), "atom name None "),
        (_one_atom(element=None), "element None "),
        (_one_atom(res_type=None), "residue name None "),
        (_one_atom(chain_id=None), "chain id None ")])
    def test_field_that_does_not_fit_raises(self, s, message):
        with pytest.raises(FieldOverflow, match=message):
            write_pdb(s)

    def test_widest_values_that_fit_round_trip(self):
        s = _one_atom(serial=99999, seq_index=-999, occupancy=-99.99,
                      b_factor=999.99)
        atom = parse_pdb(write_pdb(s)).chains[0].residues[0].atoms[0]
        assert (atom.serial, atom.b_factor) == (99999, 999.99)
        assert write_pdb(s) == write_pdb_oracle(s)


# ligands in three chains: a ZN at B 501, a three-atom GOL at A 300A and a
# ZN at C 601 whose altloc-B record is dropped, beside a water
_LIGAND_PDB = [
    atom_line(1, "N", "ALA", "A", 1, 0.0, 0.0, 0.0),
    atom_line(2, "CA", "ALA", "A", 1, 1.458, 0.0, 0.0),
    atom_line(3, "N", "GLY", "A", 2, 3.8, 0.0, 0.0),
    atom_line(4, "CA", "GLY", "A", 2, 5.258, 0.0, 0.0),
    atom_line(5, "N", "SER", "A", 3, 7.6, 0.0, 0.0),
    atom_line(6, "CA", "SER", "A", 3, 9.058, 0.0, 0.0),
    atom_line(7, "N", "ALA", "B", 1, 0.0, 10.0, 0.0),
    atom_line(8, "CA", "ALA", "B", 1, 1.458, 10.0, 0.0),
    atom_line(9, "N", "GLY", "B", 2, 3.8, 10.0, 0.0),
    atom_line(10, "CA", "GLY", "B", 2, 5.258, 10.0, 0.0),
    atom_line(11, "ZN", "ZN", "B", 501, 5.0, 2.0, 0.0, element="ZN",
              record="HETATM"),
    atom_line(12, "C1", "GOL", "A", 300, 0.5, -3.0, 0.0, icode="A",
              record="HETATM"),
    atom_line(13, "O1", "GOL", "A", 300, 1.5, -3.5, 0.0, icode="A",
              record="HETATM"),
    atom_line(14, "C2", "GOL", "A", 300, 2.5, -3.0, 0.0, icode="A",
              record="HETATM"),
    atom_line(15, "O", "HOH", "W", 1, 9.0, 2.0, 0.0, record="HETATM"),
    atom_line(16, "ZN", "ZN", "C", 601, 0.0, 12.0, 0.0, altloc="A",
              element="ZN", record="HETATM"),
    atom_line(17, "ZN", "ZN", "C", 601, 5.258, 12.5, 0.0, altloc="B",
              element="ZN", record="HETATM")]


def _ligand_records(lines):
    """(chain, number, insertion code, code, serial, position) of each
    kept non-water HETATM line, read from the columns directly."""
    return sorted((line[21], int(line[22:26]), line[26], line[17:20].strip(),
                   int(line[6:11]), tuple(float(line[c:c + 8])
                                          for c in (30, 38, 46)))
                  for line in lines if line.startswith("HETATM")
                  and line[17:20] != "HOH" and line[16] in " A")


def _ligand_atoms(s):
    return sorted((c.id, r.seq_index, r.insertion_code or " ", r.res_type,
                   a.serial, tuple(a.position.tolist()))
                  for c in s.ligands for r in c.residues for a in r.atoms)


class TestLigandChains:
    def test_parse_write_parse_keeps_every_ligand_field(self):
        text = "\n".join(_LIGAND_PDB)
        s = parse_pdb(text)
        assert [c.id for c in s.ligands] == ["B", "A", "C"]
        assert s.hetero_codes == {"ZN", "GOL"}
        written = write_pdb(s)
        assert written == write_pdb_oracle(s)
        again = parse_pdb(written)
        assert _ligand_atoms(s) == _ligand_atoms(again) == _ligand_records(
            _LIGAND_PDB)
        assert again == s
        _assert_matches_oracle(text)

    def test_metal_labels_match_the_oracle(self):
        s = parse_pdb("\n".join(_LIGAND_PDB))
        zn = [xyz for *_, code, _, xyz in _ligand_records(_LIGAND_PDB)
              if code == "ZN"]
        expected = proximity_oracle([[a.position for a in r.atoms]
                                     for _, r in s.iter_residues()], zn, 3.5)
        assert expected == [0, 1, 1, 1, 0]  # B 2 only near the altloc-B ZN
        assert binding_site_labels(s, {"zn"}).labels.tolist() == expected


class TestGranularity:
    def test_all_atom_identity(self):
        s = single_chain_structure(random_chain(5, make_rng(3)))
        assert select_granularity(s, Granularity.ALL_ATOM) is s

    def test_ca_only_projection(self):
        s = single_chain_structure(random_chain(5, make_rng(4)))
        out = select_granularity(s, Granularity.CA_ONLY)
        for chain in out.chains:
            for res in chain.residues:
                assert [a.name for a in res.atoms] == ["CA"]
        assert out.num_residues == 5

    def test_backbone_drops_incomplete(self):
        import dataclasses
        s = single_chain_structure(random_chain(5, make_rng(5)))
        chain = s.chains[0]
        # residue 3 (index 2) loses O
        res = chain.residues[2]
        res = dataclasses.replace(
            res, atoms=tuple(a for a in res.atoms if a.name != "O"))
        chain = dataclasses.replace(
            chain, residues=chain.residues[:2] + (res,) + chain.residues[3:])
        s = dataclasses.replace(s, chains=(chain,))
        out = select_granularity(s, Granularity.BACKBONE)
        assert out.num_residues == 4
        for res in out.chains[0].residues:
            assert sorted(a.name for a in res.atoms) == ["C", "CA", "N", "O"]

    def test_nothing_survives_raises(self):
        import dataclasses
        s = single_chain_structure(random_chain(3, make_rng(6)))
        chain = s.chains[0]
        residues = tuple(
            dataclasses.replace(r, atoms=tuple(a for a in r.atoms
                                               if a.name != "CA"))
            for r in chain.residues)
        s = dataclasses.replace(s, chains=(dataclasses.replace(chain, residues=residues),))
        with pytest.raises(NoCompleteResidues):
            select_granularity(s, Granularity.CA_ONLY)


def _structure_of_length(n, seed, **fields):
    import dataclasses
    s = single_chain_structure(random_chain(n, make_rng(seed)))
    return dataclasses.replace(s, **fields) if fields else s


class TestFilter:
    def test_min_length_inclusive(self):
        pool = [_structure_of_length(n, n) for n in (5, 10, 20)]
        out = list(filter_structures(pool, FilterSpec(min_length=10)))
        assert [s.num_residues for s in out] == [10, 20]

    def test_required_ligand(self):
        import dataclasses
        zn = Atom("ZN", "ZN", np.zeros(3), serial=99)
        with_zn = dataclasses.replace(_structure_of_length(5, 7), ligands=(
            Chain("Z", (Residue("ZN", 1, None, (zn,)),)),))
        apo = _structure_of_length(5, 8)
        out = list(filter_structures([with_zn, apo],
                                     FilterSpec(required_ligands=frozenset({"ZN"}))))
        assert out == [with_zn]

    def test_max_resolution(self):
        pool = [_structure_of_length(5, 9, resolution=r)
                for r in (1.8, 2.5, 3.0)]
        pool.append(_structure_of_length(5, 10))  # no resolution
        out = list(filter_structures(pool, FilterSpec(max_resolution=2.5)))
        assert [s.resolution for s in out] == [1.8, 2.5]

    def test_empty_spec_passes_everything(self):
        pool = [_structure_of_length(n, n) for n in (3, 6, 9)]
        assert list(filter_structures(pool, FilterSpec())) == pool

    def test_methods_and_dates(self):
        d = datetime.date
        pool = [
            _structure_of_length(5, 11, method=Method.XRAY,
                                 deposition_date=d(2001, 5, 1)),
            _structure_of_length(5, 12, method=Method.NMR,
                                 deposition_date=d(2015, 5, 1)),
        ]
        spec = FilterSpec(allowed_methods=frozenset({Method.XRAY}),
                          date_range=(d(2000, 1, 1), d(2010, 1, 1)))
        out = list(filter_structures(pool, spec))
        assert out == [pool[0]]

    def test_excluded_ligand(self):
        import dataclasses
        zn = Atom("ZN", "ZN", np.zeros(3), serial=99)
        with_zn = dataclasses.replace(_structure_of_length(5, 13), ligands=(
            Chain("Z", (Residue("ZN", 1, None, (zn,)),)),))
        apo = _structure_of_length(5, 14)
        out = list(filter_structures(
            [with_zn, apo], FilterSpec(excluded_ligands=frozenset({"ZN"}))))
        assert out == [apo]

    def test_invalid_bounds(self):
        with pytest.raises(InvalidFilterSpec):
            FilterSpec(min_length=10, max_length=5)
        with pytest.raises(InvalidFilterSpec):
            FilterSpec(max_resolution=float("nan"))


class TestFilterSpecConfig:
    def test_documented_grammar(self):
        spec = load_filter_spec(
            "# curation\n"
            "min_length=10\n"
            "max_resolution = 2.5\n"
            "required_ligands=ZN,ADP\n"
            "allowed_methods=XRAY\n"
            "date_range=2000-01-01,2020-12-31\n")
        assert spec.min_length == 10
        assert spec.max_resolution == 2.5
        assert spec.required_ligands == {"ZN", "ADP"}
        assert spec.allowed_methods == {Method.XRAY}
        assert spec.date_range == (datetime.date(2000, 1, 1),
                                   datetime.date(2020, 12, 31))

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidFilterSpec):
            load_filter_spec("frobnicate=1\n")

    def test_bad_value_rejected(self):
        # a NaN bound compares false with every resolution: it would pass all
        for text in ("min_length=ten\n", "max_resolution=nan\n",
                     "max_resolution = NaN\n"):
            with pytest.raises(InvalidFilterSpec):
                load_filter_spec(text)


class TestHelixFixture:
    def test_backbone_structure_sane(self):
        s = single_chain_structure(helix_chain(10))
        assert s.num_residues == 10
        ca = [r.atom("CA").position for r in s.chains[0].residues]
        # consecutive CA distance for trans peptide ~3.8 A
        d = np.linalg.norm(np.diff(np.asarray(ca), axis=0), axis=1)
        assert np.all(np.abs(d - 3.8) < 0.3)
