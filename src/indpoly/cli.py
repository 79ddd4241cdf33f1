"""Command-line surface: thin adapters over the library operations.

Every subcommand reads files in the formats owned by the library modules
(DIMACS CNF, graph text or structured JSON) and streams one line-delimited
JSON record per result to stdout.  Each handler returns its record;
``main`` times the handler, adds the command name and ``timing_ms``,
emits the record and maps errors to exit codes.  No arithmetic or graph
logic lives here.

Exit codes: 0 success, 1 domain errors (degenerate point, invalid
formula or graph), 2 capacity errors, 3 I/O or oracle protocol errors,
64 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time

from .clonecalc import normalize_point
from .cnf import count_sat, count_x3sat, parse_dimacs, reduce_to_graph, reduce_to_x3sat, x3sat_to_graph
from .errors import CapacityError, DomainError, OracleError
from .graphs import CloneSpec, clique_cover, graph_to_json_dict, graph_to_text, parse_graph, s_clone
from .interpolate import ExternalOracle, InternalOracle, interpolate_family
from .isp import isp_coeffs, isp_eval
from .quadfield import format_rational, parse_rational
from .verify import DEFAULT_SEED, SUITES, run_suites

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_CAPACITY = 2
EXIT_IO = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Let negative rationals like "-1/2" pass as values, not flags.
        self._negative_number_matcher = re.compile(r"^-\d+(?:/\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_file(path: str) -> str:
    with open(path, "r") as handle:
        return handle.read()


def _emit(record: dict):
    print(json.dumps(record, sort_keys=True))


def _write_out(path, text: str):
    """Also write ``text`` to the ``--out`` path, when one was given."""
    if path:
        with open(path, "w") as handle:
            handle.write(text)


def _load_formula(path: str):
    return parse_dimacs(_read_file(path))


def _load_graph(path: str):
    return parse_graph(_read_file(path))


def _cmd_count(args) -> dict:
    f = _load_formula(args.file)
    count = args.counter(f, max_variables=args.max_vars)
    return {"file": args.file, "n": f.variable_count, "m": len(f.clauses), "count": count}


def _cmd_reduce_x3sat(args) -> dict:
    f = _load_formula(args.file)
    reduced = reduce_to_x3sat(f)
    dimacs = reduced.to_dimacs()
    _write_out(args.out, dimacs)
    return {
        "file": args.file,
        "clauses_in": len(f.clauses),
        "clauses_out": len(reduced.clauses),
        "vars_in": f.variable_count,
        "vars_out": reduced.variable_count,
        "dimacs": dimacs,
    }


def _cmd_reduce_graph(args) -> dict:
    """``labels`` lists each vertex's literal, by x3sat_to_graph's
    numbering: one vertex per literal occurrence, clause by clause."""
    f = _load_formula(args.file)
    graph, target, multiplier = x3sat_to_graph(f)
    _write_out(args.out, graph_to_text(graph))
    return {
        "file": args.file,
        "clauses_in": len(f.clauses),
        "vertices": graph.n,
        "target_size": target,
        "multiplier": multiplier,
        "graph": graph_to_json_dict(graph),
        "labels": [lit for clause in f.clauses for lit in clause],
    }


def _cmd_count_via_is(args) -> dict:
    reduction = reduce_to_graph(_load_formula(args.file))
    return {"file": args.file, "count": reduction.count(), **reduction.report()}


def _cmd_isp_eval(args) -> dict:
    g = _load_graph(args.graph)
    x = parse_rational(args.at)
    value = isp_eval(g, x)
    return {
        "graph": args.graph,
        "vertices": g.n,
        "at": format_rational(x),
        "value": format_rational(value),
    }


def _cmd_isp_coeffs(args) -> dict:
    g = _load_graph(args.graph)
    poly = isp_coeffs(g)
    return {"graph": args.graph, "vertices": g.n, "coeffs": poly.to_json_dict()["coeffs"]}


def _parse_clone_multiset(text: str) -> CloneSpec:
    try:
        entries = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise DomainError(f"malformed clone multiset {text!r}: expected e.g. \"0,2,3\"")
    if not entries:
        raise DomainError("empty clone multiset")
    return CloneSpec(entries)


def _cmd_clone(args) -> dict:
    g = _load_graph(args.graph)
    spec = _parse_clone_multiset(args.s)
    cloned = s_clone(g, spec)
    _write_out(args.out, graph_to_text(cloned))
    return {
        "graph": args.graph,
        "s_set": list(spec.entries),
        "vertices_in": g.n,
        "vertices_out": cloned.n,
        "result": graph_to_json_dict(cloned),
    }


def _cmd_normalize_point(args) -> dict:
    return normalize_point(parse_rational(args.at)).to_json_dict()


def _cmd_interpolate(args) -> dict:
    g = _load_graph(args.graph)
    x = parse_rational(args.at)
    oracle = ExternalOracle(args.oracle) if args.oracle else InternalOracle()
    cover = clique_cover(g)
    poly = interpolate_family(g, cover, x, oracle)
    return {
        "graph": args.graph,
        "vertices": g.n,
        "at": format_rational(x),
        "oracle": oracle.kind,
        "coeffs": poly.to_json_dict()["coeffs"],
        "degree_bound": len(cover),
    }


def _cmd_verify(args) -> dict:
    """Stream one record per case; the summary is the returned record."""
    names = list(SUITES) if args.suite == "all" else [args.suite]
    passed = 0
    failed = 0

    def emit(record):
        nonlocal passed, failed
        if record["status"] == "pass":
            passed += 1
        else:
            failed += 1
        _emit(record)

    ok = run_suites(names, args.seed, emit, dump_dir=args.dump_dir)
    return {
        "suites": names,
        "seed": args.seed,
        "passed": passed,
        "failed": failed,
        "status": "pass" if ok else "fail",
    }


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves no state
    in it, so every ``main`` call can reuse it."""
    parser = _Parser(prog="indpoly", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("count-sat", help="count satisfying assignments of a DIMACS CNF")
    p.add_argument("file")
    p.add_argument("--max-vars", type=int, default=24)
    p.set_defaults(handler=_cmd_count, counter=count_sat)

    p = sub.add_parser("count-x3sat", help="count exactly-one-true assignments")
    p.add_argument("file")
    p.add_argument("--max-vars", type=int, default=24)
    p.set_defaults(handler=_cmd_count, counter=count_x3sat)

    p = sub.add_parser("reduce-x3sat", help="parsimonious 3-CNF to X3SAT reduction")
    p.add_argument("file")
    p.add_argument("--out", help="also write the reduced formula as DIMACS")
    p.set_defaults(handler=_cmd_reduce_x3sat)

    p = sub.add_parser("reduce-graph", help="X3SAT instance to independent-set graph")
    p.add_argument("file")
    p.add_argument("--out", help="also write the graph in text format")
    p.set_defaults(handler=_cmd_reduce_graph)

    p = sub.add_parser("count-via-is", help="count SAT through the graph reduction")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_count_via_is)

    p = sub.add_parser("isp-eval", help="evaluate the independent set polynomial")
    p.add_argument("graph")
    p.add_argument("--at", required=True, metavar="P/Q")
    p.set_defaults(handler=_cmd_isp_eval)

    p = sub.add_parser("isp-coeffs", help="all coefficients of I(G; X)")
    p.add_argument("graph")
    p.set_defaults(handler=_cmd_isp_coeffs)

    p = sub.add_parser("clone", help="apply an S-clone to a graph")
    p.add_argument("graph")
    p.add_argument("--s", required=True, metavar="LIST", help="multiset, e.g. 0,2,3")
    p.add_argument("--out", help="also write the clone in text format")
    p.set_defaults(handler=_cmd_clone)

    p = sub.add_parser("normalize-point", help="transform plan for a hard point")
    p.add_argument("--at", required=True, metavar="P/Q")
    p.set_defaults(handler=_cmd_normalize_point)

    p = sub.add_parser("interpolate", help="recover I(G; X) from one evaluation point")
    p.add_argument("graph")
    p.add_argument("--at", required=True, metavar="P/Q")
    p.add_argument("--oracle", metavar="CMD", help="external oracle command")
    p.set_defaults(handler=_cmd_interpolate)

    p = sub.add_parser("verify", help="run the exact property suites")
    p.add_argument("--suite", choices=sorted(SUITES) + ["all"], default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--dump-dir", default="counterexamples")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        record = args.handler(args)
        record["command"] = args.subcommand
        record["timing_ms"] = int((time.perf_counter() - started) * 1000)
        _emit(record)
    except CapacityError as exc:
        print(f"indpoly: capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except DomainError as exc:
        print(f"indpoly: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OracleError as exc:
        print(f"indpoly: oracle error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"indpoly: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_DOMAIN if record.get("status") == "fail" else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
