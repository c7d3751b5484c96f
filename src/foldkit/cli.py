"""Command-line front end.

Subcommands compose the library into file pipelines: encode/decode (FKC1
codec), featurise (FKT1 tensors), corrupt (denoising inputs + targets),
label (proximity CSV labels), filter (dataset manifests).

Exit codes: 0 success, 1 usage error (argparse's, or the
DegenerateConfiguration of a subcommand's argument check, made before any
file is read), 2 data error. Every input may be a single file or a
directory; directories are walked breadth-first in lexicographic order
and can be processed with --jobs N, with per-file seeds derived from the
relative path so outputs do not depend on N.
Each file's notes or error print in input order for any --jobs, and a
file that fails writes nothing: workers return outputs, _run_jobs writes.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextvars
import json
import logging
import os
import sys

from . import __version__
from .codec import EncodedProtein, decode, encode
from .errors import DegenerateConfiguration, FoldkitError
from .featurise import DEFAULT_K, FeatureScheme, build_graph
from .geometry import backbone_array, check_cutoff, check_k, edges_to_text, kabsch
from .pdb import parse_pdb, write_pdb
from .residues import vocabulary_sha256
from .rng import path_seed
from .structure import load_filter_spec, logger as structure_logger
from .synth import single_chain_structure
from .tasks import (DEFAULT_CUTOFF, DEFAULT_LAMBDA_AUX, DEFAULT_NU,
                    DEFAULT_SIGMA, CorruptionKind, CorruptionSpec,
                    binding_site_labels, corrupt_structure, interface_labels)
from .tensorio import write_tensor


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _walk(root: str, suffix: str) -> list[str]:
    """Breadth-first lexicographic file listing."""
    queue = [root]
    found = []
    while queue:
        current = queue.pop(0)
        for entry in sorted(os.listdir(current)):
            path = os.path.join(current, entry)
            if os.path.isdir(path):
                queue.append(path)
            elif entry.endswith(suffix):
                found.append(path)
    return found


def _plan(input_path: str, output_path: str, in_suffix: str,
          out_suffix: str | None):
    """(input, output, relpath) triples; output None when out_suffix is."""
    if not os.path.exists(input_path):
        raise FoldkitError(f"{input_path}: no such file or directory")
    if os.path.isfile(input_path):
        return [(input_path, output_path, os.path.basename(input_path))]
    plans = []
    for path in _walk(input_path, in_suffix):
        rel = os.path.relpath(path, input_path)
        if out_suffix is None:
            out = os.path.join(output_path, rel)
        else:
            out = os.path.join(output_path,
                               rel[:-len(in_suffix)] + out_suffix)
        plans.append((path, out, rel))
    if not plans:
        raise FoldkitError(f"{input_path}: no *{in_suffix} files")
    return plans


_input_path = contextvars.ContextVar("input_path", default=None)


def _name_input(record: logging.LogRecord) -> bool:
    """Prefix a record logged inside a worker with the worker's input path
    (a structure's id may come from its HEADER, not its file name)."""
    if _input_path.get() is not None:
        record.msg = f"{_input_path.get().replace('%', '%%')}: {record.msg}"
    return True


def _write(path: str, data) -> None:
    """Write text, bytes or an array (as FKT1) to path, making its parent."""
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    if isinstance(data, (str, bytes)):
        with open(path, "w" if isinstance(data, str) else "wb") as fh:
            fh.write(data)
    else:
        write_tensor(path, data)


def _run_jobs(args, in_suffix: str, out_suffix: str | None, worker) -> int:
    """Run worker on every planned file, with --jobs threads. A worker
    returns ({path: str | bytes | array}, [note, ...]) and neither writes
    nor prints; its outputs are written once it returns. Each file's notes,
    or its error (any Exception), print after its input path, in input
    order. Returns 2 if any file failed."""
    def attempt(plan):
        token = _input_path.set(plan[0])
        try:
            outputs, notes = worker(plan)
            for path, data in outputs.items():
                _write(path, data)
        except Exception as exc:  # one file's failure stops no other file
            logging.getLogger(__name__).debug("%s", plan[0], exc_info=exc)
            return False, [f"{type(exc).__name__}: {exc}"]
        finally:
            _input_path.reset(token)
        return True, notes

    plans = _plan(args.input, args.output, in_suffix, out_suffix)
    failed = False
    with concurrent.futures.ThreadPoolExecutor(max(args.jobs, 1)) as pool:
        results = (pool.map if args.jobs > 1 else map)(attempt, plans)
        for (in_path, _, _), (ok, lines) in zip(plans, results):
            failed |= not ok
            for line in lines:
                print(f"{in_path}: {line}", file=sys.stderr)
    return 2 if failed else 0


def _read(path: str, mode: str = "r"):
    """The text (mode "r", undecodable bytes replaced) or bytes ("rb") of
    a file."""
    try:
        with open(path, mode, errors=None if mode == "rb" else "replace") as fh:
            return fh.read()
    except OSError as exc:
        raise FoldkitError(f"{path}: {exc}") from exc


def _parse_file(path: str):
    return parse_pdb(_read(path),
                     os.path.splitext(os.path.basename(path))[0])


def _pick_chain(structure, chain_id: str | None):
    if chain_id is not None:
        for chain in structure.chains:
            if chain.id == chain_id:
                return chain, []
        raise FoldkitError(f"no chain {chain_id!r}")
    if not structure.chains:
        raise FoldkitError("structure has no polymer chains")
    notes = ([f"{len(structure.chains)} chains, encoding the first"]
             if len(structure.chains) > 1 else [])
    return structure.chains[0], notes


def _in_dir(out_path: str, files: dict, manifest: dict) -> dict:
    """files, keyed by name, then manifest.json, in out_path less suffix."""
    files["manifest.json"] = json.dumps(manifest, sort_keys=True) + "\n"
    out_dir = os.path.splitext(out_path)[0]
    return {os.path.join(out_dir, name): data for name, data in files.items()}


# --- subcommands ---

def run_encode(args) -> int:
    def worker(plan):
        in_path, out_path, _ = plan
        chain, notes = _pick_chain(_parse_file(in_path), args.chain)
        encoded = encode(chain)  # measures the backbone array read below
        xyz, present = backbone_array(chain)
        sup = kabsch(xyz[present], backbone_array(decode(encoded))[0][present])
        notes.append(f"{encoded.n_residues} residues, "
                     f"round-trip backbone RMSD {sup.rmsd:.4f} A")
        return {out_path: encoded.to_bytes()}, notes

    return _run_jobs(args, ".pdb", ".fkc", worker)


def run_decode(args) -> int:
    def worker(plan):
        in_path, out_path, _ = plan
        encoded = EncodedProtein.from_bytes(_read(in_path, "rb"))
        text = write_pdb(single_chain_structure(decode(encoded)))
        return {out_path: text}, [f"decoded {encoded.n_residues} residues"]

    return _run_jobs(args, ".fkc", ".pdb", worker)


def run_featurise(args) -> int:
    scheme = FeatureScheme(args.scheme)
    check_k(args.k)  # argument checks come before any file is read

    def worker(plan):
        in_path, out_path, _ = plan
        graph = build_graph(_parse_file(in_path), scheme, args.k,
                            global_positions=args.global_positions)
        return _in_dir(out_path, {
            "scalars.fkt": graph.scalars, "coords.fkt": graph.coords,
            "node_vectors.fkt": graph.node_vectors,
            "edge_vectors.fkt": graph.edge_vectors,
            "edges.tsv": edges_to_text(graph.topology)}, {
                "scheme": scheme.value, "k": args.k,
                "num_nodes": graph.num_nodes,
                "vocabulary_sha256": vocabulary_sha256()}), []

    return _run_jobs(args, ".pdb", None, worker)


def run_corrupt(args) -> int:
    kind = CorruptionKind(args.kind)
    CorruptionSpec(kind, nu=args.nu, sigma=args.sigma,  # checks the spec
                   seed=args.seed)

    def worker(plan):
        in_path, out_path, rel = plan
        seed = (args.seed if os.path.isfile(args.input)
                else path_seed(args.seed, rel))
        spec = CorruptionSpec(kind, nu=args.nu, sigma=args.sigma, seed=seed)
        result = corrupt_structure(_parse_file(in_path), spec)
        return _in_dir(out_path, {
            "corrupted.pdb": write_pdb(result.corrupted),
            **_target_arrays(result.targets)}, {
                "kind": kind.value, "nu": spec.nu, "sigma": spec.sigma,
                "seed": spec.seed, "lambda_aux": DEFAULT_LAMBDA_AUX}), []

    return _run_jobs(args, ".pdb", None, worker)


def _target_arrays(targets) -> dict:
    """{file name: array} of a corruption's targets."""
    if targets.kind == "co":
        return {**_target_arrays(targets.sequence),
                **_target_arrays(targets.structure)}
    if targets.kind == "sequence":
        return {"seq_positions.fkt": targets.positions.reshape(-1, 1),
                "seq_original_types.fkt":
                    targets.original_residues.reshape(-1, 1)}
    if targets.kind == "coordinate":
        return {"coord_noise.fkt": targets.noise}
    return {"angular_noise.fkt": targets.angular_noise,
            "original_angles.fkt": targets.original_angles}


def run_label(args) -> int:
    check_cutoff(args.cutoff)
    ligands = {code.strip().upper() for code in args.ligands.split(",")
               if code.strip()}
    if args.mode == "metal" and not ligands:  # no file could match
        raise DegenerateConfiguration("metal mode needs --ligands")

    def worker(plan):
        in_path, out_path, _ = plan
        structure = _parse_file(in_path)
        if args.mode == "metal":
            labels = binding_site_labels(structure, ligands, args.cutoff)
        else:
            labels = interface_labels(structure, args.cutoff)
        table = structure.table
        rows = "".join(f"{chain_id},{seq_index},{label}\n"
                       for chain_id, seq_index, label in zip(
                           table.chain.tolist(), table.seq_index.tolist(),
                           labels.labels))
        return {out_path: "chain,seq_index,label\n" + rows}, []

    return _run_jobs(args, ".pdb", ".csv", worker)


def run_filter(args) -> int:
    spec = load_filter_spec(_read(args.spec))
    if not os.path.isdir(args.input):
        raise FoldkitError(f"{args.input}: not a directory")
    accepted = []
    for path in _walk(args.input, ".pdb"):
        try:
            structure = _parse_file(path)
        except FoldkitError as exc:
            print(f"{path}: skipped ({exc})", file=sys.stderr)
            continue
        if spec.matches(structure):
            accepted.append(path)
    _write(args.output, "".join(path + "\n" for path in accepted))
    print(f"{args.input}: accepted {len(accepted)} structures",
          file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="foldkit",
                     description="Protein structure toolkit pipelines.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, jobs=True):
        p.add_argument("input")
        p.add_argument("output")
        if jobs:
            p.add_argument("--jobs", type=int, default=1,
                           help="parallel workers for directory inputs")

    p = sub.add_parser("encode", help="compress PDB to FKC1")
    add_common(p)
    p.add_argument("--chain", default=None,
                   help="chain id to encode (default: first)")
    p.set_defaults(func=run_encode)

    p = sub.add_parser("decode", help="reconstruct PDB from FKC1")
    add_common(p)
    p.set_defaults(func=run_decode)

    p = sub.add_parser("featurise", help="write graph tensors")
    add_common(p)
    p.add_argument("--scheme", default=FeatureScheme.CA_BB.value,
                   choices=[s.value for s in FeatureScheme])
    p.add_argument("--k", type=int, default=DEFAULT_K)
    p.add_argument("--global-positions", action="store_true")
    p.set_defaults(func=run_featurise)

    p = sub.add_parser("corrupt", help="generate denoising inputs/targets")
    add_common(p)
    p.add_argument("--kind", default=CorruptionKind.SEQ_MUTATE.value,
                   choices=[k.value for k in CorruptionKind])
    p.add_argument("--nu", type=float, default=DEFAULT_NU)
    p.add_argument("--sigma", type=float, default=DEFAULT_SIGMA)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=run_corrupt)

    p = sub.add_parser("label", help="proximity labels as CSV")
    add_common(p)
    p.add_argument("--mode", choices=("metal", "interface"), required=True)
    p.add_argument("--ligands", default="",
                   help="comma-separated hetero codes for metal mode")
    p.add_argument("--cutoff", type=float, default=DEFAULT_CUTOFF)
    p.set_defaults(func=run_label)

    p = sub.add_parser("filter", help="write a manifest of accepted files")
    add_common(p, jobs=False)
    p.add_argument("--spec", required=True, help="key=value filter file")
    p.set_defaults(func=run_filter)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(level=(logging.WARNING, logging.INFO,
                               logging.DEBUG)[min(args.verbose, 2)])
    structure_logger.addFilter(_name_input)
    try:
        return args.func(args)
    except DegenerateConfiguration as exc:  # checked before any file is read
        print(f"foldkit {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except FoldkitError as exc:
        print(f"foldkit {args.command}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"foldkit {args.command}: {exc}", file=sys.stderr)
        return 2
    finally:
        structure_logger.removeFilter(_name_input)


if __name__ == "__main__":
    sys.exit(main())
