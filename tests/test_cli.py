import hashlib
import json
import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from foldkit.cli import main
from foldkit.codec import EncodedProtein
from foldkit.tensorio import read_tensor

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "pdb")


def run_cli(*args):
    return main(list(args))


def sha_tree(root):
    """Stable digest of every regular file under root (stdout/err excluded)."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


@pytest.fixture()
def fixture_file():
    return os.path.join(FIXTURES, "chain_a.pdb")


@pytest.fixture()
def ligand_only_file(tmp_path):
    """A PDB file of two ZN HETATM records and no polymer chain."""
    from helpers import atom_line
    path = tmp_path / "zn.pdb"
    path.write_text("\n".join(
        atom_line(i, "ZN", "ZN", "Z", i, 2.0 * i, 0.0, 0.0, element="ZN",
                  record="HETATM") for i in (1, 2)))
    return str(path)


class TestEncodeDecode:
    def test_round_trip_exits_zero(self, tmp_path, fixture_file, capsys):
        fkc = tmp_path / "out.fkc"
        assert run_cli("encode", fixture_file, str(fkc)) == 0
        assert "RMSD" in capsys.readouterr().err
        assert run_cli("decode", str(fkc), str(tmp_path / "back.pdb")) == 0

    def test_payload_size_100_residues(self, tmp_path):
        from foldkit.pdb import write_pdb
        from foldkit.rng import make_rng
        from foldkit.synth import random_chain, single_chain_structure
        src = tmp_path / "c100.pdb"
        src.write_text(write_pdb(single_chain_structure(
            random_chain(100, make_rng(55)))))
        out = tmp_path / "c100.fkc"
        assert run_cli("encode", str(src), str(out)) == 0
        assert out.stat().st_size == 1341

    def test_corrupt_magic_exits_2(self, tmp_path, fixture_file, capsys):
        fkc = tmp_path / "out.fkc"
        run_cli("encode", fixture_file, str(fkc))
        data = bytearray(fkc.read_bytes())
        data[:4] = b"XXXX"
        fkc.write_bytes(bytes(data))
        assert run_cli("decode", str(fkc), str(tmp_path / "bad.pdb")) == 2
        assert "BadMagic" in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path, capsys):
        assert run_cli("encode", str(tmp_path / "nope.pdb"),
                       str(tmp_path / "x.fkc")) == 2
        (tmp_path / "empty").mkdir()  # a directory without *.pdb files
        assert run_cli("encode", str(tmp_path / "empty"),
                       str(tmp_path / "out")) == 2
        assert "no *.pdb files" in capsys.readouterr().err

    def test_usage_error_exits_1(self, tmp_path, fixture_file, capsys):
        assert run_cli("featurise") == 1
        assert run_cli("label", "a", "b") == 1  # --mode required
        # a bad corruption spec is rejected before any file is read
        for bad in (("--nu", "2"), ("--sigma", "-1"), ("--sigma", "nan"),
                    ("--sigma", "inf"), ("--seed", "-1")):
            for source, jobs in ((fixture_file, "1"), (FIXTURES, "1"),
                                 (FIXTURES, "2")):
                out = tmp_path / "corrupt"
                assert run_cli("corrupt", source, str(out), "--jobs", jobs,
                               *bad) == 1
                assert not out.exists()
                assert bad[0][2:] in capsys.readouterr().err
        # so is a label cutoff that is not finite and > 0
        for bad in ("-3.5", "0", "nan", "inf"):
            for source, jobs in ((fixture_file, "1"), (FIXTURES, "1"),
                                 (FIXTURES, "2")):
                out = tmp_path / "labels"
                assert run_cli("label", source, str(out), "--jobs", jobs,
                               "--mode", "interface", "--cutoff", bad) == 1
                assert not out.exists()
                assert ("foldkit label: error: cutoff must be finite and > 0"
                        in capsys.readouterr().err)
        # so is a k below 1, even for an input that does not exist
        for source, jobs, k in ((fixture_file, "1", "0"), (FIXTURES, "2", "-3"),
                                (str(tmp_path / "missing"), "1", "0")):
            out = tmp_path / "feat"
            assert run_cli("featurise", source, str(out), "--jobs", jobs,
                           "--k", k) == 1
            assert not out.exists()
            assert capsys.readouterr().err == (
                f"foldkit featurise: error: k must be >= 1, got {k}\n")
        # so is metal mode with no ligand code
        for ligands in ((), ("--ligands", " , ")):
            for source, jobs in ((fixture_file, "1"), (FIXTURES, "1"),
                                 (FIXTURES, "2")):
                out = tmp_path / "labels"
                assert run_cli("label", source, str(out), "--jobs", jobs,
                               "--mode", "metal", *ligands) == 1
                assert not out.exists()
                assert ("foldkit label: error: metal mode needs --ligands"
                        in capsys.readouterr().err)

    def test_errors_in_input_order_under_jobs(self, tmp_path, capsys):
        src = tmp_path / "bad"
        names = [f"{c}.fkc" for c in "hgfedcba"] + ["sub/z.fkc", "sub/a.fkc"]
        for name in names:
            (src / name).parent.mkdir(parents=True, exist_ok=True)
            (src / name).write_bytes(b"XXXX" + bytes(60))
        assert run_cli("decode", str(src), str(tmp_path / "out"),
                       "--jobs", "2") == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"{src / name}: BadMagic: expected b'FKC1', got b'XXXX'"
                         for name in sorted(names[:8]) + ["sub/a.fkc", "sub/z.fkc"]]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_unexpected_error_is_contained_per_file(self, tmp_path, capsys,
                                                     monkeypatch, jobs):
        import foldkit.cli
        src = tmp_path / "in"
        src.mkdir()
        for name in ("a.pdb", "b.pdb", "c.pdb"):
            shutil.copy(os.path.join(FIXTURES, "chain_a.pdb"), src / name)
        real = foldkit.cli.parse_pdb

        def parse(text, structure_id=""):
            if structure_id == "b":
                raise RuntimeError("disk on fire")
            return real(text, structure_id)

        monkeypatch.setattr(foldkit.cli, "parse_pdb", parse)
        out = tmp_path / "out"
        assert run_cli("encode", str(src), str(out), "--jobs", jobs) == 2
        assert sorted(os.listdir(out)) == ["a.fkc", "c.fkc"]
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "RMSD" not in line] == [
            f"{src / 'b.pdb'}: RuntimeError: disk on fire"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failure_after_encoding_writes_nothing(self, tmp_path, capsys,
                                                   monkeypatch, jobs):
        import foldkit.cli
        src = tmp_path / "in"
        src.mkdir()
        for name, fixture in (("a", "chain_a"), ("b", "dimer"),
                              ("c", "chain_a")):
            shutil.copy(os.path.join(FIXTURES, f"{fixture}.pdb"),
                        src / f"{name}.pdb")
        real = foldkit.cli.kabsch

        def kabsch(a, b):
            if len(a) == 4 * 20:  # the dimer's first chain
                raise RuntimeError("no superposition")
            return real(a, b)

        monkeypatch.setattr(foldkit.cli, "kabsch", kabsch)
        out = tmp_path / "out"
        assert run_cli("encode", str(src), str(out), "--jobs", jobs) == 2
        assert sorted(os.listdir(out)) == ["a.fkc", "c.fkc"]
        # the dimer's "2 chains" note is dropped with its outputs
        assert [line for line in capsys.readouterr().err.splitlines()
                if "RMSD" not in line] == [
            f"{src / 'b.pdb'}: RuntimeError: no superposition"]

    def test_notes_in_input_order_under_jobs(self, tmp_path, capsys):
        from foldkit.pdb import write_pdb
        from foldkit.rng import make_rng
        from foldkit.synth import random_chain, single_chain_structure
        src = tmp_path / "in"
        src.mkdir()
        # the first file is the slowest, so later files finish before it
        (src / "a.pdb").write_text(write_pdb(single_chain_structure(
            random_chain(600, make_rng(57)))))
        shutil.copy(os.path.join(FIXTURES, "dimer.pdb"), src / "b.pdb")
        for name in "hgfedc":
            shutil.copy(os.path.join(FIXTURES, "chain_b.pdb"),
                        src / f"{name}.pdb")
        assert run_cli("encode", str(src), str(tmp_path / "out"),
                       "--jobs", "2") == 0
        err = capsys.readouterr().err.splitlines()
        assert [line.split(": ", 1)[0] for line in err] == [
            str(src / f"{name}.pdb") for name in "abbcdefgh"]
        assert err[1] == f"{src / 'b.pdb'}: 2 chains, encoding the first"
        assert err[2].startswith(f"{src / 'b.pdb'}: 20 residues, round-trip")

    def test_rmsd_over_present_backbone_atoms(self, tmp_path, capsys):
        from foldkit.pdb import write_pdb
        from foldkit.rng import make_rng
        from foldkit.synth import random_chain, single_chain_structure
        import dataclasses
        chain = random_chain(12, make_rng(56))
        res = chain.residues[5]
        chain = dataclasses.replace(chain, residues=(
            chain.residues[:5]
            + (dataclasses.replace(res, atoms=tuple(
                a for a in res.atoms if a.name != "O")),)
            + chain.residues[6:]))
        src = tmp_path / "no_o.pdb"
        src.write_text(write_pdb(single_chain_structure(chain)))
        assert run_cli("encode", str(src), str(tmp_path / "no_o.fkc")) == 0
        assert "round-trip backbone RMSD" in capsys.readouterr().err

    def test_chain_option_encodes_that_chain(self, tmp_path, capsys):
        dimer = os.path.join(FIXTURES, "dimer.pdb")
        out = tmp_path / "b.fkc"
        assert run_cli("encode", dimer, str(out), "--chain", "B") == 0
        assert "chains" not in capsys.readouterr().err
        from foldkit.pdb import parse_pdb
        chain_b = parse_pdb(Path(dimer).read_text()).chains[1]
        assert chain_b.id == "B"
        assert EncodedProtein.from_bytes(out.read_bytes()).n_residues == \
            len(chain_b.residues)
        assert run_cli("encode", dimer, str(tmp_path / "z.fkc"),
                       "--chain", "Z") == 2
        assert "'Z'" in capsys.readouterr().err

    def test_ligand_only_file_exits_2(self, tmp_path, capsys, ligand_only_file):
        assert run_cli("encode", ligand_only_file, str(tmp_path / "x.fkc")) == 2
        assert "structure has no polymer chains" in capsys.readouterr().err

    def test_version_and_help_exit_0(self, capsys):
        assert run_cli("--version") == 0
        assert run_cli("--help") == 0
        capsys.readouterr()


class TestFeaturise:
    def test_ca_sc_has_57_columns(self, tmp_path, fixture_file):
        out = tmp_path / "feat"
        assert run_cli("featurise", fixture_file, str(out),
                       "--scheme", "ca_sc") == 0
        S = read_tensor(out / "scalars.fkt")
        assert S.shape[1] == 57
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scheme"] == "ca_sc"
        assert manifest["k"] == 16

    def test_default_k_is_16(self, tmp_path, fixture_file):
        out = tmp_path / "feat"
        run_cli("featurise", fixture_file, str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["k"] == 16
        edges = (out / "edges.tsv").read_text().splitlines()
        assert len(edges) == 60 * 16

    def test_byte_identical_across_runs(self, tmp_path, fixture_file):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("featurise", fixture_file, str(a))
        run_cli("featurise", fixture_file, str(b))
        assert sha_tree(a) == sha_tree(b)

    def test_ca_only_input_fails_bb_scheme(self, tmp_path):
        from helpers import atom_line
        src = tmp_path / "ca_only.pdb"
        src.write_text("\n".join(
            atom_line(i + 1, "CA", "ALA", "A", i + 1, i * 3.8, (i % 2) * 1.0, 0.0)
            for i in range(5)))
        assert run_cli("featurise", str(src), str(tmp_path / "f"),
                       "--scheme", "ca_bb") == 2


    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failure_after_tensors_writes_nothing(self, tmp_path, capsys,
                                                  monkeypatch, jobs):
        import foldkit.cli
        src = tmp_path / "in"
        src.mkdir()
        for name, fixture in (("a", "chain_a"), ("b", "chain_b"),
                              ("c", "chain_a")):
            shutil.copy(os.path.join(FIXTURES, f"{fixture}.pdb"),
                        src / f"{name}.pdb")
        real = foldkit.cli.edges_to_text

        def edges_to_text(topology):
            if topology.num_nodes == 25:  # chain_b
                raise RuntimeError("no edge text")
            return real(topology)

        monkeypatch.setattr(foldkit.cli, "edges_to_text", edges_to_text)
        out = tmp_path / "out"
        assert run_cli("featurise", str(src), str(out), "--jobs", jobs) == 2
        assert sorted(os.listdir(out)) == ["a", "c"]
        assert len(os.listdir(out / "a")) == 6
        assert capsys.readouterr().err.splitlines() == [
            f"{src / 'b.pdb'}: RuntimeError: no edge text"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_ca_less_warning_names_its_file(self, tmp_path, caplog, jobs):
        lines = Path(FIXTURES, "chain_a.pdb").read_text().splitlines()
        assert lines[0].startswith("HEADER") and lines[0].endswith("CHNA")
        lines.remove(next(line for line in lines[10:] if line[12:16] == " CA "))
        src = tmp_path / "in"
        src.mkdir()
        (src / "a.pdb").write_text("\n".join(lines) + "\n")
        shutil.copy(os.path.join(FIXTURES, "chain_b.pdb"), src / "b.pdb")
        with caplog.at_level(logging.WARNING, logger="foldkit"):
            assert run_cli("featurise", str(src), str(tmp_path / "f"),
                           "--jobs", jobs) == 0
        assert [r.getMessage() for r in caplog.records] == [
            f"{src / 'a.pdb'}: structure 'CHNA': dropped 1 residues lacking "
            "one of CA"]


class TestCorrupt:
    def test_defaults_match_recorded_constants(self, tmp_path, fixture_file):
        out = tmp_path / "corr"
        assert run_cli("corrupt", fixture_file, str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["nu"] == 0.25
        assert manifest["sigma"] == 0.1
        assert manifest["lambda_aux"] == 0.1
        assert manifest["kind"] == "seq_mutate"

    def test_nu_zero_structure_unchanged(self, tmp_path, fixture_file):
        out = tmp_path / "corr"
        run_cli("corrupt", fixture_file, str(out), "--kind", "seq_mutate",
                "--nu", "0")
        from foldkit.pdb import parse_pdb
        original = parse_pdb(Path(fixture_file).read_text())
        corrupted = parse_pdb((out / "corrupted.pdb").read_text())
        assert corrupted == original

    def test_same_seed_same_sha(self, tmp_path, fixture_file):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_cli("corrupt", fixture_file, str(out), "--kind", "co_denoise",
                    "--seed", "7")
        assert sha_tree(a) == sha_tree(b)

    def test_torsional_kind_writes_angle_targets(self, tmp_path, fixture_file):
        out = tmp_path / "t"
        assert run_cli("corrupt", fixture_file, str(out),
                       "--kind", "torsion_gauss") == 0
        noise = read_tensor(out / "angular_noise.fkt")
        assert noise.shape == (60, 3)

    def test_torsional_kind_keeps_every_record(self, tmp_path):
        from foldkit.pdb import write_pdb
        from helpers import full_atom_dimer
        src = tmp_path / "full.pdb"
        src.write_text(write_pdb(full_atom_dimer()))
        out = tmp_path / "t"
        assert run_cli("corrupt", str(src), str(out), "--kind",
                       "torsion_gauss", "--sigma", "0.3") == 0

        def records(path, kind):
            return [line for line in path.read_text().splitlines()
                    if line.startswith(kind)]

        before, after = records(src, "ATOM"), records(out / "corrupted.pdb", "ATOM")
        assert len(after) == len(before) == 105
        assert after != before
        # columns 31-54 hold x, y, z; the rest of each record is the input's
        assert [line[:30] + line[54:] for line in after] == \
            [line[:30] + line[54:] for line in before]
        assert records(out / "corrupted.pdb", "HETATM") == records(src, "HETATM")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_unwritable_field_exits_2_per_file(self, tmp_path, capsys, jobs):
        from helpers import atom_line
        src = tmp_path / "in"
        src.mkdir()
        shutil.copy(os.path.join(FIXTURES, "chain_a.pdb"), src / "a.pdb")
        # a repeated serial 99999 is renumbered to 100000 on reading
        (src / "b.pdb").write_text("\n".join(
            atom_line(99999, name, "ALA", "A", 1, 0.0, 0.0, 0.0)
            for name in ("N", "CA")))
        line = atom_line(1, "CA", "ALA", "A", 1, 0.0, 0.0, 0.0)
        (src / "c.pdb").write_text(line[:60] + "9999.9" + line[66:])
        out = tmp_path / "out"
        assert run_cli("corrupt", str(src), str(out), "--jobs", jobs) == 2
        assert os.listdir(out) == ["a"]  # nothing is written for b or c
        assert capsys.readouterr().err.splitlines() == [
            f"{src / 'b.pdb'}: FieldOverflow: serial 100000 does not fit the "
            "5-column field",
            f"{src / 'c.pdb'}: FieldOverflow: b-factor 9999.9 does not fit the "
            "6-column field"]

    def test_torsional_on_short_chain_exits_2(self, tmp_path):
        from foldkit.pdb import write_pdb
        from foldkit.rng import make_rng
        from foldkit.synth import random_chain, single_chain_structure
        import dataclasses
        s = single_chain_structure(random_chain(3, make_rng(60)))
        short = dataclasses.replace(
            s, chains=(dataclasses.replace(s.chains[0],
                       residues=s.chains[0].residues[:2]),))
        src = tmp_path / "short.pdb"
        src.write_text(write_pdb(short))
        assert run_cli("corrupt", str(src), str(tmp_path / "t"),
                       "--kind", "torsion_gauss") == 2

    def test_torsional_on_ligand_only_file_writes_empty_targets(
            self, tmp_path, ligand_only_file):
        out = tmp_path / "t"
        assert run_cli("corrupt", ligand_only_file, str(out),
                       "--kind", "torsion_gauss") == 0
        for name in ("angular_noise.fkt", "original_angles.fkt"):
            assert read_tensor(out / name).shape == (0, 3)
        assert [line for line in (out / "corrupted.pdb").read_text()
                .splitlines() if line.startswith("HETATM")] == [
            line for line in Path(ligand_only_file).read_text().splitlines()]


class TestLabel:
    def test_metal_labels_match_library(self, tmp_path):
        from foldkit.pdb import parse_pdb
        from foldkit.tasks import binding_site_labels
        src = os.path.join(FIXTURES, "helix_zn.pdb")
        out = tmp_path / "labels.csv"
        assert run_cli("label", src, str(out), "--mode", "metal",
                       "--ligands", "ZN") == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "chain,seq_index,label"
        structure = parse_pdb(Path(src).read_text())
        expected = binding_site_labels(structure, {"ZN"}, 3.5).labels
        got = [int(r.split(",")[2]) for r in rows[1:]]
        assert got == expected.tolist()
        assert sum(got) >= 1

    def test_no_residues_writes_header_only(self, tmp_path):
        from helpers import atom_line
        src = tmp_path / "zn.pdb"
        src.write_text(atom_line(1, "ZN", "ZN", "B", 501, 8.5, 3.6, 2.7,
                                 element="ZN", record="HETATM") + "\n")
        out = tmp_path / "labels.csv"
        assert run_cli("label", str(src), str(out), "--mode", "metal",
                       "--ligands", "ZN") == 0
        assert out.read_bytes() == b"chain,seq_index,label\n"

    def test_interface_on_single_chain_exits_2(self, tmp_path, fixture_file,
                                               capsys):
        assert run_cli("label", fixture_file, str(tmp_path / "x.csv"),
                       "--mode", "interface") == 2
        assert "SingleChain" in capsys.readouterr().err

    def test_interface_on_dimer(self, tmp_path):
        src = os.path.join(FIXTURES, "dimer.pdb")
        out = tmp_path / "iface.csv"
        assert run_cli("label", src, str(out), "--mode", "interface") == 0
        labels = [int(r.split(",")[2])
                  for r in out.read_text().splitlines()[1:]]
        assert sum(labels) >= 1

    def test_huge_cutoff_labels_every_residue(self, tmp_path):
        src = os.path.join(FIXTURES, "dimer.pdb")
        out = tmp_path / "iface.csv"
        assert run_cli("label", src, str(out), "--mode", "interface",
                       "--cutoff", "1e200") == 0
        labels = [int(r.split(",")[2])
                  for r in out.read_text().splitlines()[1:]]
        assert len(labels) == 40 and all(labels)

    def test_selector_empty_exits_2(self, tmp_path, fixture_file):
        assert run_cli("label", fixture_file, str(tmp_path / "x.csv"),
                       "--mode", "metal", "--ligands", "MG") == 2


class TestFilterCommand:
    def test_empty_spec_lists_everything_bfs_lex(self, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text("")
        manifest = tmp_path / "accepted.txt"
        assert run_cli("filter", FIXTURES, str(manifest),
                       "--spec", str(spec)) == 0
        lines = manifest.read_text().splitlines()
        names = [os.path.relpath(p, FIXTURES) for p in lines]
        assert names == ["chain_a.pdb", "chain_b.pdb", "dimer.pdb",
                         "helix_zn.pdb", os.path.join("sub", "nested.pdb")]

    def test_min_length_boundary_inclusive(self, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text("min_length=30\n")
        manifest = tmp_path / "accepted.txt"
        run_cli("filter", FIXTURES, str(manifest), "--spec", str(spec))
        names = {os.path.basename(p)
                 for p in manifest.read_text().splitlines()}
        # chain_a=60, chain_b=25, dimer=40, helix_zn=30, nested=35
        assert names == {"chain_a.pdb", "dimer.pdb", "helix_zn.pdb",
                         "nested.pdb"}

    def test_matches_inprocess_filter(self, tmp_path):
        from foldkit.pdb import parse_pdb
        from foldkit.structure import FilterSpec, filter_structures
        spec = tmp_path / "spec.cfg"
        spec.write_text("max_resolution=2.5\n")
        manifest = tmp_path / "accepted.txt"
        run_cli("filter", FIXTURES, str(manifest), "--spec", str(spec))
        from foldkit.cli import _walk
        pool = [(p, parse_pdb(Path(p).read_text())) for p in _walk(FIXTURES, ".pdb")]
        expected = [p for p, s in pool
                    if FilterSpec(max_resolution=2.5).matches(s)]
        assert manifest.read_text().splitlines() == expected

    def test_bad_spec_exits_2(self, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text("nonsense==\n")
        assert run_cli("filter", FIXTURES, str(tmp_path / "m.txt"),
                       "--spec", str(spec)) == 2

    def test_file_input_exits_2(self, tmp_path, fixture_file):
        spec = tmp_path / "spec.cfg"
        spec.write_text("")
        assert run_cli("filter", fixture_file, str(tmp_path / "m.txt"),
                       "--spec", str(spec)) == 2

    def test_unparseable_file_is_skipped(self, tmp_path, capsys):
        spec, tree = tmp_path / "spec.cfg", tmp_path / "in"
        spec.write_text("")
        tree.mkdir()
        (tree / "bad.pdb").write_text("ATOM  bad\n")
        manifest = tmp_path / "m.txt"
        assert run_cli("filter", str(tree), str(manifest),
                       "--spec", str(spec)) == 0
        assert f"{tree / 'bad.pdb'}: skipped (" in capsys.readouterr().err
        assert manifest.read_text() == ""


class TestDirectoryJobs:
    def test_jobs_1_vs_8_identical(self, tmp_path):
        a, b = tmp_path / "j1", tmp_path / "j8"
        assert run_cli("corrupt", FIXTURES, str(a), "--kind", "co_denoise",
                       "--seed", "3", "--jobs", "1") == 0
        assert run_cli("corrupt", FIXTURES, str(b), "--kind", "co_denoise",
                       "--seed", "3", "--jobs", "8") == 0
        assert sha_tree(a) == sha_tree(b)

    def test_directory_encode_mirrors_tree(self, tmp_path):
        out = tmp_path / "enc"
        assert run_cli("encode", FIXTURES, str(out), "--jobs", "2") == 0
        assert (out / "chain_a.fkc").exists()
        assert (out / "sub" / "nested.fkc").exists()
        payload = (out / "chain_a.fkc").read_bytes()
        assert EncodedProtein.from_bytes(payload).n_residues == 60


class TestFixtureDigests:
    def test_cli_trees_match_committed_digests(self):
        """Every fixture CLI tree is byte-identical to the committed digests
        (regenerate digests.txt with tests/fixtures/digests.py only when an
        output is meant to change)."""
        script = Path(__file__).parent / "fixtures" / "digests.py"
        proc = subprocess.run([sys.executable, str(script)],
                              capture_output=True, text=True, check=True)
        assert proc.stdout == (script.parent / "digests.txt").read_text()


class TestSubprocessEntry:
    def test_module_invocation(self, tmp_path, fixture_file):
        out = tmp_path / "o.fkc"
        proc = subprocess.run(
            [sys.executable, "-m", "foldkit.cli", "encode", fixture_file,
             str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "RMSD" in proc.stderr
