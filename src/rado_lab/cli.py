"""Command-line front door.

Reports go to stdout; with --json they are canonical JSON (sorted keys, no
volatile fields) so that identical inputs reproduce identical bytes; only
``generate`` takes a --seed, which its ec builds read.
Wall time goes to stderr only.  Exit code 0 means a verdict was computed
(a failing arrow is still a verdict); usage and domain errors are nonzero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import stat
import sys
import time
from functools import cache

from .canonicity import classify_on_set, profile_partitioned
from .gadgets import FunctionGadget, pair_color, parse_gadget
from .generation import GeneratorSet, classify_reduct, interpolate, separating_invariant, verify_separation
from .graphs import (
    BuildBudgetError,
    Graph,
    build_ec,
    build_paley,
    check_extension,
    format_graph,
    pair_kind,
    parse_graph,
)
from .ramsey import DEFAULT_COLORING_BUDGET, DEFAULT_COPY_BUDGET, ArrowBudget, ArrowQuery, verify_arrow
from .relations import parse_relation_spec, qf_type
from .structures import ConstantGraph, PartitionedGraph, associate_partitioned, parse_structure


class CliError(Exception):
    pass


def _read_input(path: str) -> tuple[str, str]:
    # (text, sha256 of the file's bytes) from one read; the text is decoded
    # as text mode decodes it: ASCII, with "\r\n" and "\r" read as "\n"
    with open(path, "rb") as fh:
        data = fh.read()
    text = data.decode("ascii").replace("\r\n", "\n").replace("\r", "\n")
    return text, hashlib.sha256(data).hexdigest()


def _open_in_place(path: str, flags: int) -> int:
    # ``open``'s opener for "wb" without O_TRUNC: on ext4, truncating a file
    # to zero makes its close wait for the new blocks to reach the disk
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write_output(path: str, text: str) -> str:
    # writes ``text`` as ASCII over the file in place and returns the sha256
    # of the bytes written; a regular file is then cut to their length, while
    # a device or a pipe (``/dev/null``, ``/dev/stdout``) cannot be cut
    data = text.encode("ascii")
    with open(path, "wb", opener=_open_in_place) as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()
    return hashlib.sha256(data).hexdigest()


def _read_graph_file(path: str) -> tuple[Graph, str]:
    text, digest = _read_input(path)
    return parse_graph(text), digest


def _read_gadget_file(path: str) -> tuple[FunctionGadget, str]:
    # graph names inside a gadget file are relative to the file's directory;
    # src and dst naming one file read and parse it once
    base = os.path.dirname(os.path.abspath(path))
    text, digest = _read_input(path)
    graphs: dict[str, Graph] = {}

    def read_graph(name: str) -> Graph:
        if name not in graphs:
            graphs[name] = _read_graph_file(os.path.join(base, name))[0]
        return graphs[name]

    return parse_gadget(text, read_graph), digest


def _read_structure_file(path: str):
    text, digest = _read_input(path)
    return parse_structure(text), digest


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        return
    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}{key}.", value[key])
        else:
            sys.stdout.write(f"{prefix[:-1]}: {value}\n")
    walk("", report)


def _add_json(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="emit a canonical JSON report")


def _cmd_generate(args) -> int:
    if args.kind == "paley":
        if args.q is None:
            raise CliError("paley generation needs q")
        if args.k is not None:
            raise CliError("paley generation takes --check-k, not -k")
        result = build_paley(args.q)
        graph = result.graph
        default_name = f"paley{args.q}.g"
        check_k = args.check_k if args.check_k is not None else 2
    else:
        if args.q is not None:
            raise CliError("ec generation takes -k, not a positional modulus")
        k = 2 if args.k is None else args.k
        graph = build_ec(k, args.seed)
        default_name = f"ec_k{k}_s{args.seed}.g"
        check_k = args.check_k if args.check_k is not None else k
    # checked first, so a refused check writes no file
    verdict = check_extension(graph, check_k)
    out_path = args.output or default_name
    out_digest = _write_output(out_path, format_graph(graph))
    report = {
        "command": "generate",
        "kind": args.kind,
        "seed": args.seed,
        "output": out_path,
        "output_sha256": out_digest,
        "vertices": graph.n,
        "edges": graph.edge_count(),
        "extension_check": {
            "k": check_k,
            "passed": verdict.passed,
        },
    }
    if not verdict.passed:
        report["extension_check"]["failing"] = [list(verdict.failing[0]), list(verdict.failing[1])]
    _emit(report, args.json)
    if not args.json:
        sys.stdout.write(
            f"{check_k}-e.c.: {'pass' if verdict.passed else 'fail'}\n"
        )
    return 0


def _cmd_classify_relation(args) -> int:
    inputs: dict[str, str] = {}  # tuple files' and the host's digests

    def read_file(path: str) -> str:
        text, inputs[path] = _read_input(path)
        return text

    relations = [parse_relation_spec(spec, read_file=read_file) for spec in args.spec]
    host, inputs[args.host] = _read_graph_file(args.host)
    classification = classify_reduct(relations, host, args.k)
    report = {
        "command": "classify-relation",
        "inputs": inputs,
        "specs": list(args.spec),
        "k": args.k,
        "verdict": classification.to_json_dict(),
    }
    _emit(report, args.json)
    return 0


def _parse_vertex_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise CliError(f"malformed vertex list {text!r}") from None


def _nonempty_vertex_list(option: str, text: str) -> list[int]:
    # an evidence option that names no vertex is refused, not read as absent
    vertices = _parse_vertex_list(text)
    if not vertices:
        raise CliError(f"{option} {text!r} names no vertex")
    return vertices


def _cmd_classify_function(args) -> int:
    gadget, gadget_digest = _read_gadget_file(args.gadget)
    report = {
        "command": "classify-function",
        "inputs": {args.gadget: gadget_digest},
        "label": gadget.label,
    }
    pg = None
    if args.parts is not None:
        parts = tuple(
            frozenset(_parse_vertex_list(chunk)) for chunk in args.parts.split("|")
        )
        if not any(parts):
            raise CliError(f"--parts {args.parts!r} names no vertex")
        pg = PartitionedGraph(gadget.src, parts)
    elif args.constants is not None:
        constants = tuple(_nonempty_vertex_list("--constants", args.constants))
        pg = associate_partitioned(ConstantGraph(gadget.src, constants))
    if pg is not None:
        report["verdict"] = {"profile": profile_partitioned(gadget, pg).to_json_dict()}
    else:
        target = list(gadget.dom) if args.set is None else _nonempty_vertex_list("--set", args.set)
        classes = classify_on_set(gadget, target)
        verdict: dict = {
            "set": sorted(set(target)),
            "classes": sorted(c.value for c in classes),
        }
        if not classes:
            conflicts = []
            vs = sorted(set(target))
            for i, x in enumerate(vs):
                for y in vs[i + 1:]:
                    conflicts.append(
                        {
                            "pair": [x, y],
                            "kind": pair_kind(gadget.src, x, y).value,
                            "color": pair_color(gadget, x, y).value,
                        }
                    )
            verdict["noncanonical"] = True
            verdict["pairs"] = conflicts
        report["verdict"] = verdict
    _emit(report, args.json)
    return 0


def _cmd_ramsey(args) -> int:
    (s, s_digest), (h, h_digest), (p, p_digest) = map(_read_structure_file, (args.S, args.H, args.P))
    query = ArrowQuery(s, h, p, args.k, ordered=args.ordered)
    budget = ArrowBudget(colorings=args.budget_colorings, copies=args.budget_copies)
    result = verify_arrow(query, budget)
    report = {
        "command": "ramsey-verify",
        "inputs": {
            args.S: s_digest,
            args.H: h_digest,
            args.P: p_digest,
        },
        "k": args.k,
        "ordered": args.ordered,
        "verdict": result.verdict,
        "stats": result.stats,
    }
    if result.witness is not None:
        witness_path = args.witness_out or "arrow_witness.txt"
        lines = [f"copies {len(result.witness.copies)}"]
        lines.extend(
            f"copy {i}: " + " ".join(str(v) for v in copy)
            for i, copy in enumerate(result.witness.copies)
        )
        lines.append("coloring:")
        lines.extend(
            f"{i} {c}" for i, c in enumerate(result.witness.colors)
        )
        report["witness_file"] = witness_path
        report["witness_sha256"] = _write_output(witness_path, "\n".join(lines) + "\n")
    _emit(report, args.json)
    return 0


def _type_json(t) -> dict:
    pattern, code = t
    return {"pattern": list(pattern), "code": code}


def _cmd_interpolate(args) -> int:
    target, target_digest = _read_gadget_file(args.target)
    kinds = frozenset(x for x in args.gens.split(",") if x)
    digests = {args.target: target_digest}
    hosts = []
    for path in args.hosts:
        host, digests[path] = _read_graph_file(path)
        hosts.append(host)
    gens = GeneratorSet(kinds)
    if args.depth < 1:
        raise CliError("depth must be at least 1")
    # a certified miss makes interpolate return None without a search
    sep = separating_invariant(target, gens)
    witness = interpolate(target, gens, args.depth, hosts) if sep is None else None
    report = {
        "command": "interpolate",
        "inputs": digests,
        "gens": sorted(kinds | {"identity"}),
        "depth": args.depth,
        "verdict": {
            "found": witness is not None,
        },
    }
    if witness is not None:
        report["verdict"]["generator_steps"] = witness.generator_steps
        report["verdict"]["transcript"] = list(witness.transcript)
    if sep is not None:
        if not verify_separation(target, gens, hosts, sep):
            raise RuntimeError("the separating invariant fails its independent check")
        report["verdict"]["separated_by"] = {
            "subset": list(sep.subset),
            "source_type": _type_json(qf_type(sep.subset, target.src)),
            "image_type": _type_json(sep.image_type),
            "types": [_type_json(t) for t in sorted(sep.relation.types)],
        }
    _emit(report, args.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rado-lab",
        description="desk-scale experiments on finite stand-ins for the random graph",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="build a host graph and write it out")
    p_gen.add_argument("kind", choices=["paley", "ec"])
    p_gen.add_argument("q", type=int, nargs="?", default=None, help="paley modulus")
    p_gen.add_argument("-k", type=int, default=None, help="extension level for ec builds (default 2)")
    p_gen.add_argument("-o", "--output", default=None)
    p_gen.add_argument("--check-k", type=int, default=None, help="extension level to report")
    p_gen.add_argument("--seed", type=int, default=0, help="seed for ec builds")
    _add_json(p_gen)
    p_gen.set_defaults(func=_cmd_generate)

    p_rel = sub.add_parser("classify-relation", help="five-class classification")
    p_rel.add_argument(
        "--spec", action="append", required=True,
        help="parity:K, tuples:@file or formula:\"...\" (repeatable)",
    )
    p_rel.add_argument("--host", required=True)
    p_rel.add_argument("-k", type=int, default=2, help="claimed extension level of the host")
    _add_json(p_rel)
    p_rel.set_defaults(func=_cmd_classify_relation)

    p_fun = sub.add_parser("classify-function", help="behavior classification of a gadget")
    p_fun.add_argument("--gadget", required=True)
    evidence = p_fun.add_mutually_exclusive_group()
    evidence.add_argument("--set", default=None, help="comma-separated vertex set")
    evidence.add_argument("--parts", default=None, help="partition as v,v|v,v|...")
    evidence.add_argument("--constants", default=None, help="comma-separated constants")
    _add_json(p_fun)
    p_fun.set_defaults(func=_cmd_classify_function)

    p_ram = sub.add_parser("ramsey", help="arrow statement verification")
    ram_sub = p_ram.add_subparsers(dest="ramsey_command", required=True)
    p_ver = ram_sub.add_parser("verify")
    p_ver.add_argument("--S", required=True)
    p_ver.add_argument("--H", required=True)
    p_ver.add_argument("--P", required=True)
    p_ver.add_argument("-k", type=int, required=True)
    p_ver.add_argument("--ordered", action="store_true")
    p_ver.add_argument("--budget-colorings", type=int, default=DEFAULT_COLORING_BUDGET)
    p_ver.add_argument("--budget-copies", type=int, default=DEFAULT_COPY_BUDGET)
    p_ver.add_argument("--witness-out", default=None)
    _add_json(p_ver)
    p_ver.set_defaults(func=_cmd_ramsey)

    p_int = sub.add_parser("interpolate", help="bounded-depth interpolation search")
    p_int.add_argument("--target", required=True, help="gadget file")
    p_int.add_argument("--gens", default="identity", help="comma-separated kinds")
    p_int.add_argument("--hosts", nargs="+", required=True)
    p_int.add_argument("--depth", type=int, default=2)
    _add_json(p_int)
    p_int.set_defaults(func=_cmd_interpolate)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    # built once per process; parse_args still returns a fresh namespace per call
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    start = time.monotonic()
    try:
        code = args.func(args)
    except (CliError, BuildBudgetError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    sys.stderr.write(f"wall time: {time.monotonic() - start:.3f}s\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
