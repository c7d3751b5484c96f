"""Digest the foldkit CLI's output trees on a directory of PDB files.

    python tests/fixtures/digests.py [DIR]

Runs the sixteen fixture invocations of the CLI on DIR (default:
tests/fixtures/pdb next to this script): featurise under every scheme
and once with --global-positions, encode, decode of the encoded tree,
corrupt --seed 3 under every kind, and label in metal (--ligands ZN) and
interface mode; every other flag keeps its default. DIR is copied into a
temporary directory as `in` and each command writes `out/<name>` there,
so no path in the run depends on where the checkout lives. For each
output tree it prints the tree's name, the SHA-256 of its listing (the
output of `find . -type f -exec sha256sum {} +` run inside the tree,
sorted bytewise as `LC_ALL=C sort` does) and, when the command failed on
some file, its exit status. Two checkouts print the same digests iff
they write the same bytes. The foldkit used is the one in this script's
checkout (its `src/`).
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[2]
KINDS = ("seq_mutate", "seq_mask", "coord_gauss", "coord_uniform",
         "torsion_gauss", "co_denoise")
SCHEMES = ("ca_ident", "ca_seq", "ca_angles", "ca_bb", "ca_sc")

INVOCATIONS = (
    [(f"featurise_{s}", ["featurise", "in", "out/featurise_" + s,
                         "--scheme", s]) for s in SCHEMES]
    + [("featurise_ca_sc_global", ["featurise", "in",
                                   "out/featurise_ca_sc_global",
                                   "--scheme", "ca_sc", "--global-positions"]),
       ("encode", ["encode", "in", "out/encode"]),
       ("decode", ["decode", "out/encode", "out/decode"])]
    + [(f"corrupt_{k}", ["corrupt", "in", "out/corrupt_" + k, "--kind", k,
                         "--seed", "3"]) for k in KINDS]
    + [("label_metal", ["label", "in", "out/label_metal", "--mode", "metal",
                        "--ligands", "ZN"]),
       ("label_interface", ["label", "in", "out/label_interface",
                            "--mode", "interface"])])


def tree_digest(tree: pathlib.Path) -> str:
    """SHA-256 of the sorted sha256sum listing of every file under tree."""
    lines = sorted(
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
        f"./{path.relative_to(tree).as_posix()}\n"
        for path in tree.rglob("*") if path.is_file())
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def main(argv: list[str]) -> int:
    source = pathlib.Path(argv[0] if argv else ROOT / "tests/fixtures/pdb")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as work:
        work = pathlib.Path(work)
        shutil.copytree(source, work / "in")
        for name, args in INVOCATIONS:
            status = subprocess.run(
                [sys.executable, "-m", "foldkit.cli", *args], cwd=work,
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL).returncode
            tree = work / "out" / name
            digest = tree_digest(tree) if tree.exists() else "-" * 64
            print(f"{name:<24} {digest}" + (f"  exit {status}" if status else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
