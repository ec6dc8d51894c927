"""Command-line entry point.

One binary with subcommands covering generation, the structured hard
family, connectivity and disjoint-path queries, dominator checks, the
linker, the brute-force oracle, DOT export and the acceptance suite.
Each subcommand only computes and returns ``(parameters, verdicts,
artifacts, exit code)``, or a bare exit code if it prints no report;
``main`` prints every report, whose ``timings.seconds`` is the wall time
of the whole subcommand.

Exit codes: 0 success, 1 verdict failure (a check or search said no),
2 usage error (printed as ``error: ...``), 3 internal assertion failure.
All subcommands are deterministic given their inputs and seeds; reports
are byte-stable except for timing fields.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path as FsPath

from . import __version__
from .acceptance import run_acceptance_suite
from .counterexample import (CounterexampleLayout, build_counterexample,
                             sampled_connectivity_check,
                             verify_construction_rules)
from .digraph import Digraph, _arc_lines, digraph_from_arc_list, digraph_to_arc_list
from .dominators import (find_nearly_in_dominating, find_nearly_out_dominating,
                         nearly_in_dominating_profile,
                         nearly_out_dominating_profile)
from .flows import FlowInfeasible, is_k_connected, max_disjoint_paths, \
    min_weight_disjoint_paths, vertex_connectivity
from .generators import _KINDS
from .linker import (FailureReport, LinkageCertificate, LinkageInstance,
                     LinkerCheckError, LinkerTrace, link)
from .oracle import OracleBudget, exists_disjoint_linkage

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _report(command: str, parameters: dict, verdicts: dict, timings: dict,
            artifacts: dict) -> str:
    return json.dumps({
        "command": command,
        "parameters": parameters,
        "verdicts": verdicts,
        "timings": timings,
        "artifacts": artifacts,
    }, indent=2, sort_keys=True)


def _read_digraph(path: str) -> Digraph:
    return digraph_from_arc_list(FsPath(path).read_text())


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        FsPath(path).write_text(text)


def _parse_list(option: str, spec: str, what: str, parse=int,
                form: str = "an integer") -> list:
    """Comma- or space-separated items; a bad one names the option and itself."""
    items = []
    for tok in spec.replace(",", " ").split():
        try:
            items.append(parse(tok))
        except ValueError:
            raise ValueError(f"{option}: malformed {what} {tok!r} "
                             f"(expected {form})") from None
    return items


def _pair(tok: str) -> tuple[int, int]:
    a, b = tok.split(":")
    return int(a), int(b)


def _parse_pairs(spec: str) -> list[tuple[int, int]]:
    return _parse_list("--pairs", spec, "pair", _pair, "u:v")


def export_dot(d: Digraph, layout: CounterexampleLayout | None = None) -> str:
    """DOT text; with a layout, vertices are clustered by role."""
    lines = ["digraph semilink {"]
    if layout is not None:
        groups: dict[str, list[int]] = {}
        for v in range(d.n):
            role = layout.role_of(v).split(":")[0]
            groups.setdefault(role, []).append(v)
        for role in sorted(groups):
            lines.append(f"  subgraph cluster_{role} {{")
            lines.append(f'    label="{role}";')
            for v in groups[role]:
                lines.append(f"    {v};")
            lines.append("  }")
    else:
        for v in range(d.n):
            lines.append(f"  {v};")
    lines.extend(_arc_lines(d, "  {} -> ", ";"))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_gen(args) -> tuple[dict, dict, dict, int] | int:
    d = _KINDS[args.kind](args)
    _write(args.out, digraph_to_arc_list(d))
    if not args.out:
        return EXIT_OK
    return ({"kind": args.kind, "n": args.n, "u_size": args.u_size,
             "w_size": args.w_size, "p_bidirected": args.p_bidirected,
             "seed": args.seed},
            {"n": d.n, "arcs": d.arc_count}, {"out": args.out}, EXIT_OK)


def _cmd_counterexample(args) -> tuple[dict, dict, dict, int]:
    d, layout = build_counterexample(args.k, args.n, args.seed)
    _write(args.out, digraph_to_arc_list(d))
    if args.layout:
        FsPath(args.layout).write_text(layout.to_json())
    verdicts = {"n": d.n, "arcs": d.arc_count,
                "min_out_degree": d.min_out_degree()}
    if args.verify:
        report = verify_construction_rules(d, layout)
        verdicts["rules_passed"] = report.all_passed
        verdicts["failed_rules"] = [c.name for c in report.failed()]
        verdicts["non_linkage"] = ("not computed: it follows from the paper's proof, "
                                   "given the wiring rules")
    return ({"k": args.k, "n": args.n, "seed": args.seed}, verdicts,
            {"out": args.out, "layout": args.layout},
            EXIT_OK if verdicts.get("rules_passed", True) else EXIT_VERDICT)


def _cmd_connectivity(args) -> tuple[dict, dict, dict, int]:
    if args.target is not None and args.target < 1:
        raise ValueError("target must be >= 1")
    d = _read_digraph(args.input)
    if args.sample is None:
        if args.target is not None:
            # A threshold runs the star search at the target itself: it stops
            # at the first cut below target, and pairs settled by an arc or
            # by target two-arc paths get no cut.
            ok = is_k_connected(d, args.target)
            return ({"in": args.input, "mode": "exact-threshold",
                     "target": args.target},
                    {"target_met": ok}, {}, EXIT_OK if ok else EXIT_VERDICT)
        return ({"in": args.input, "mode": "exact"},
                {"vertex_connectivity": vertex_connectivity(d)}, {}, EXIT_OK)
    if args.target is None:
        raise ValueError("--sample requires --target")
    sample = sampled_connectivity_check(d, args.target, args.sample, args.seed)
    return ({"in": args.input, "mode": "sample", "pairs": args.sample,
             "target": args.target, "seed": args.seed},
            {"min_observed": sample.min_observed, "all_ok": sample.all_ok,
             "failures": list(sample.failures()[:10])},
            {}, EXIT_OK if sample.all_ok else EXIT_VERDICT)


def _cmd_paths(args) -> tuple[dict, dict, dict, int]:
    d = _read_digraph(args.input)
    sources = _parse_list("--sources", args.sources, "vertex")
    sinks = _parse_list("--sinks", args.sinks, "vertex")
    if args.minimize:
        try:
            system = min_weight_disjoint_paths(d, sources, sinks, args.count)
        except FlowInfeasible as exc:
            return ({"in": args.input, "count": args.count, "minimize": True},
                    {"feasible": False, "achieved": exc.achieved,
                     "cut": sorted(exc.cut.separator)}, {}, EXIT_VERDICT)
        cut = None
    else:
        system, cert = max_disjoint_paths(d, sources, sinks, cap=args.count)
        cut = sorted(cert.separator) if cert is not None else None
    verdicts = {
        "paths": [list(p.vertices) for p in system],
        "count": len(system),
        "total_vertices": system.total_vertices(),
        "cut": cut,
    }
    return ({"in": args.input, "sources": sources, "sinks": sinks,
             "count": args.count, "minimize": args.minimize},
            verdicts, {}, EXIT_OK if len(system) >= args.count else EXIT_VERDICT)


def _cmd_dominators(args) -> tuple[dict, dict, dict, int]:
    d = _read_digraph(args.input)
    if args.check is None:
        find = find_nearly_out_dominating if args.find_out else find_nearly_in_dominating
        mode = "find-out" if args.find_out else "find-in"
        return {"in": args.input, "mode": mode}, {"vertex": find(d)}, {}, EXIT_OK
    # every count past c = n - 1 is the same, so a larger cmax only costs memory
    if args.cmax is not None and not 1 <= args.cmax <= d.n:
        raise ValueError(f"--cmax must lie in 1..{d.n}")
    out = nearly_out_dominating_profile(d, args.check, c_max=args.cmax)
    inp = nearly_in_dominating_profile(d, args.check, c_max=args.cmax)
    return ({"in": args.input, "check": args.check, "cmax": args.cmax},
            {"nearly_out_dominating": out.is_nearly_dominating(),
             "nearly_in_dominating": inp.is_nearly_dominating(),
             "out_bad_counts": list(out.bad_counts[:20]),
             "in_bad_counts": list(inp.bad_counts[:20])}, {}, EXIT_OK)


def _cmd_link(args) -> tuple[dict, dict, dict, int]:
    d = _read_digraph(args.input)
    pairs = _parse_pairs(args.pairs)
    trace = LinkerTrace()
    outcome = link(LinkageInstance(d, tuple(pairs)), check=args.check_hypotheses,
                   trace=trace)
    if args.trace:
        FsPath(args.trace).write_text(trace.to_json())
    parameters = {"in": args.input, "pairs": pairs}
    if isinstance(outcome, LinkageCertificate):
        if args.cert:
            FsPath(args.cert).write_text(outcome.to_json())
        return (parameters,
                {"linked": True, "lengths": [len(p) - 1 for p in outcome.paths]},
                {"cert": args.cert, "trace": args.trace}, EXIT_OK)
    if not isinstance(outcome, FailureReport):
        raise AssertionError(f"link returned a {type(outcome).__name__}")
    return (parameters,
            {"linked": False, "step": outcome.step, "reason": outcome.reason,
             "hypothesis_note": outcome.hypothesis_note},
            {"trace": args.trace}, EXIT_VERDICT)


def _cmd_oracle(args) -> tuple[dict, dict, dict, int]:
    d = _read_digraph(args.input)
    pairs = _parse_pairs(args.pairs)
    budget = OracleBudget(node_limit=args.node_limit,
                          time_limit=args.time_limit)
    answer = exists_disjoint_linkage(d, pairs, budget)
    return ({"in": args.input, "pairs": pairs, "node_limit": args.node_limit,
             "time_limit": args.time_limit},
            {"verdict": answer.verdict,
             "paths": [list(p) for p in answer.paths] if answer.paths else None,
             "nodes_explored": answer.nodes_explored},
            {}, EXIT_OK if answer.verdict in ("yes", "no") else EXIT_VERDICT)


def _cmd_export(args) -> int:
    d = _read_digraph(args.input)
    layout = None
    if args.layout:
        layout = CounterexampleLayout.from_json(FsPath(args.layout).read_text())
        if layout.n != d.n:
            raise ValueError(f"layout has {layout.n} vertices, the digraph {d.n}")
    _write(args.out, export_dot(d, layout))
    return EXIT_OK


def _cmd_accept(args) -> int:
    numbers = (_parse_list("--criteria", args.criteria, "criterion number")
               if args.criteria else None)
    results = run_acceptance_suite(numbers)
    if args.out:
        FsPath(args.out).write_text(json.dumps(
            [{**asdict(r), "seconds": round(r.seconds, 3)} for r in results],
            indent=2))
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERDICT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semilink",
        description="disjoint-path linkage toolkit for semicomplete digraphs")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a structured or random digraph")
    p.add_argument("--kind", required=True, choices=list(_KINDS))
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--u-size", type=int, default=0)
    p.add_argument("--w-size", type=int, default=0)
    p.add_argument("--p-bidirected", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("counterexample",
                       help="build the structured hard tournament family")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--layout")
    p.add_argument("--verify", action="store_true",
                   help="also run the rule verifier")
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("connectivity", help="exact or sampled connectivity")
    p.add_argument("--in", dest="input", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true",
                      help="exact connectivity (the default without --sample)")
    mode.add_argument("--sample", type=int, default=None,
                      help="number of sampled ordered pairs")
    p.add_argument("--target", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_connectivity)

    p = sub.add_parser("paths", help="disjoint source-to-sink path systems")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--sources", required=True)
    p.add_argument("--sinks", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--minimize", action="store_true",
                   help="minimize the total number of vertices")
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("dominators", help="nearly-dominating vertex queries")
    p.add_argument("--in", dest="input", required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--find-out", action="store_true")
    mode.add_argument("--find-in", action="store_true")
    mode.add_argument("--check", type=int, default=None)
    p.add_argument("--cmax", type=int, default=None)
    p.set_defaults(func=_cmd_dominators)

    p = sub.add_parser("link", help="construct disjoint paths for given pairs")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--pairs", required=True, help='e.g. "0:5,1:6"')
    p.add_argument("--check-hypotheses", default=None,
                   help='"exact" or "sample:N"')
    p.add_argument("--trace")
    p.add_argument("--cert")
    p.set_defaults(func=_cmd_link)

    p = sub.add_parser("oracle", help="exhaustive linkage decision")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--node-limit", type=int, default=2_000_000)
    p.add_argument("--time-limit", type=float, default=60.0)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("export", help="DOT export, optionally role-clustered")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--layout")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("accept", help="run the acceptance suite")
    p.add_argument("--criteria", help="comma-separated subset, e.g. 1,2,7")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=_cmd_accept)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    t0 = time.monotonic()
    try:
        result = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AssertionError, LinkerCheckError) as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if isinstance(result, int):
        return result
    parameters, verdicts, artifacts, code = result
    print(_report(args.command, parameters, verdicts,
                  {"seconds": round(time.monotonic() - t0, 3)}, artifacts))
    return code


if __name__ == "__main__":
    sys.exit(main())
