"""Command-line front door.

Reports go to stdout; with --json they are canonical JSON (sorted keys, no
volatile fields) so that identical inputs and seed reproduce identical bytes.
Wall time goes to stderr only.  Exit code 0 means a verdict was computed
(a failing arrow is still a verdict); usage and domain errors are nonzero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from functools import cache

from .canonicity import classify_on_set, profile_partitioned, is_canonical_constant_graph
from .gadgets import FunctionGadget, GadgetConstructionError, pair_color, parse_gadget
from .generation import GeneratorSet, classify_reduct, interpolate
from .graphs import (
    BuildBudgetError,
    Graph,
    GraphFormatError,
    build_ec,
    build_paley,
    check_extension,
    format_graph,
    pair_kind,
    parse_graph,
)
from .ramsey import ArrowBudget, ArrowQuery, verify_arrow
from .relations import RelationSpecError, parse_relation_spec
from .structures import ConstantGraph, PartitionedGraph, parse_structure


class CliError(Exception):
    pass


def _fingerprint(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_graph_file(path: str) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_graph(fh.read())


def _read_gadget_file(path: str) -> FunctionGadget:
    # graph names inside a gadget file are relative to the file's directory
    base = os.path.dirname(os.path.abspath(path))
    with open(path, "r", encoding="ascii") as fh:
        return parse_gadget(fh.read(), lambda name: _read_graph_file(os.path.join(base, name)))


def _read_structure_file(path: str):
    with open(path, "r", encoding="ascii") as fh:
        return parse_structure(fh.read())


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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    parser.add_argument("--json", action="store_true", help="emit a canonical JSON report")


def _cmd_generate(args) -> int:
    if args.kind == "paley":
        if args.q is None:
            raise CliError("paley generation needs q")
        result = build_paley(args.q)
        graph = result.graph
        default_name = f"paley{args.q}.g"
        check_k = args.check_k if args.check_k is not None else 2
    else:
        if args.q is not None:
            raise CliError("ec generation takes -k, not a positional modulus")
        graph = build_ec(args.k, args.seed)
        default_name = f"ec_k{args.k}_s{args.seed}.g"
        check_k = args.check_k if args.check_k is not None else args.k
    out_path = args.output or default_name
    with open(out_path, "w", encoding="ascii") as fh:
        fh.write(format_graph(graph))
    verdict = check_extension(graph, check_k)
    report = {
        "command": "generate",
        "kind": args.kind,
        "seed": args.seed,
        "output": out_path,
        "output_sha256": _fingerprint(out_path),
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
    relations = [parse_relation_spec(spec) for spec in args.spec]
    host = _read_graph_file(args.host)
    classification = classify_reduct(
        relations, host, args.k, check_host=not args.no_check_host
    )
    report = {
        "command": "classify-relation",
        "seed": args.seed,
        "inputs": {args.host: _fingerprint(args.host)},
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


def _cmd_classify_function(args) -> int:
    gadget = _read_gadget_file(args.gadget)
    report = {
        "command": "classify-function",
        "seed": args.seed,
        "inputs": {args.gadget: _fingerprint(args.gadget)},
        "label": gadget.label,
    }
    if args.parts:
        parts = tuple(
            frozenset(_parse_vertex_list(chunk)) for chunk in args.parts.split("|")
        )
        profile = profile_partitioned(gadget, PartitionedGraph(gadget.src, parts))
        report["verdict"] = {"profile": profile.to_json_dict()}
    elif args.constants:
        constants = tuple(_parse_vertex_list(args.constants))
        profile = is_canonical_constant_graph(
            gadget, ConstantGraph(gadget.src, constants)
        )
        report["verdict"] = {"profile": profile.to_json_dict()}
    else:
        target = _parse_vertex_list(args.set) if args.set else list(gadget.dom)
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
    s = _read_structure_file(args.S)
    h = _read_structure_file(args.H)
    p = _read_structure_file(args.P)
    query = ArrowQuery(s, h, p, args.k, ordered=args.ordered)
    budget = ArrowBudget(colorings=args.budget_colorings, copies=args.budget_copies)
    result = verify_arrow(query, budget)
    report = {
        "command": "ramsey-verify",
        "seed": args.seed,
        "inputs": {
            args.S: _fingerprint(args.S),
            args.H: _fingerprint(args.H),
            args.P: _fingerprint(args.P),
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
        with open(witness_path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        report["witness_file"] = witness_path
        report["witness_sha256"] = _fingerprint(witness_path)
    _emit(report, args.json)
    return 0


def _cmd_interpolate(args) -> int:
    target = _read_gadget_file(args.target)
    kinds = frozenset(x for x in args.gens.split(",") if x)
    hosts = [_read_graph_file(path) for path in args.hosts]
    witness = interpolate(target, GeneratorSet(kinds), args.depth, hosts)
    report = {
        "command": "interpolate",
        "seed": args.seed,
        "inputs": {path: _fingerprint(path) for path in [args.target] + args.hosts},
        "gens": sorted(kinds | {"identity"}),
        "depth": args.depth,
        "verdict": {
            "found": witness is not None,
        },
    }
    if witness is not None:
        report["verdict"]["generator_steps"] = witness.generator_steps
        report["verdict"]["transcript"] = list(witness.transcript)
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
    p_gen.add_argument("-k", type=int, default=2, help="extension level for ec builds")
    p_gen.add_argument("-o", "--output", default=None)
    p_gen.add_argument("--check-k", type=int, default=None, help="extension level to report")
    _add_common(p_gen)
    p_gen.set_defaults(func=_cmd_generate)

    p_rel = sub.add_parser("classify-relation", help="five-class classification")
    p_rel.add_argument(
        "--spec", action="append", required=True,
        help="parity:K, tuples:@file or formula:\"...\" (repeatable)",
    )
    p_rel.add_argument("--host", required=True)
    p_rel.add_argument("-k", type=int, default=2, help="claimed extension level of the host")
    p_rel.add_argument("--no-check-host", action="store_true")
    _add_common(p_rel)
    p_rel.set_defaults(func=_cmd_classify_relation)

    p_fun = sub.add_parser("classify-function", help="behavior classification of a gadget")
    p_fun.add_argument("--gadget", required=True)
    p_fun.add_argument("--set", default=None, help="comma-separated vertex set")
    p_fun.add_argument("--parts", default=None, help="partition as v,v|v,v|...")
    p_fun.add_argument("--constants", default=None, help="comma-separated constants")
    _add_common(p_fun)
    p_fun.set_defaults(func=_cmd_classify_function)

    p_ram = sub.add_parser("ramsey", help="arrow statement verification")
    ram_sub = p_ram.add_subparsers(dest="ramsey_command", required=True)
    p_ver = ram_sub.add_parser("verify")
    p_ver.add_argument("--S", required=True)
    p_ver.add_argument("--H", required=True)
    p_ver.add_argument("--P", required=True)
    p_ver.add_argument("-k", type=int, required=True)
    p_ver.add_argument("--ordered", action="store_true")
    p_ver.add_argument("--budget-colorings", type=int, default=2**24)
    p_ver.add_argument("--budget-copies", type=int, default=10**5)
    p_ver.add_argument("--witness-out", default=None)
    _add_common(p_ver)
    p_ver.set_defaults(func=_cmd_ramsey)

    p_int = sub.add_parser("interpolate", help="bounded-depth interpolation search")
    p_int.add_argument("--target", required=True, help="gadget file")
    p_int.add_argument("--gens", default="identity", help="comma-separated kinds")
    p_int.add_argument("--hosts", nargs="+", required=True)
    p_int.add_argument("--depth", type=int, default=2)
    _add_common(p_int)
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
    except (
        CliError,
        GraphFormatError,
        GadgetConstructionError,
        RelationSpecError,
        BuildBudgetError,
        ValueError,
        OSError,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    sys.stderr.write(f"wall time: {time.monotonic() - start:.3f}s\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
