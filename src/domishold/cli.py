"""Command-line front end: parse graph/hypergraph/DNF files, dispatch the
recognizers and solvers, and emit human-readable or JSON reports whose
certificates re-verify through the ``verify`` subcommand.

Exit codes are a stable contract: 0 = yes/success, 1 = no, 2 = error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .boolean import (
    SeparatingStructure,
    SummabilityWitness,
    dnf_of_hypergraph,
    is_threshold,
    verify_separating_structure,
    verify_summability_witness,
)
from .catalog import forbidden_catalog
from .fileio import parse_graph, parse_hypergraph, write_graph
from .graphs import GENERATORS, Graph, all_graphs, generate, is_induced_embedding
from .hypergraphs import dually_sperner_violation
from .recognition import (
    TdStructure,
    check_equivalence_chain,
    neighborhood_dnf,
    recognize_htd,
    recognize_td,
    verify_td_structure,
)
from .solvers import approx_dominating_set, greedy_min_tds

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2

DEFAULT_SEED = 20130919


def _reported(fill, args, no: int) -> int:
    """Run a report command: ``fill(args, report)`` enters the verdict and
    its certificates into the report and returns the human lines. The call
    is timed, the report emitted, and the verdict mapped to EXIT_YES or
    to ``no``."""
    report = {
        "command": args._argv,
        "verdict": None,
        "structure": None,
        "witness": None,
        "legs": None,
        "solution": None,
        "elapsed_ms": 0,
        "version": __version__,
        "error": None,
    }
    start = time.monotonic()
    human = fill(args, report)
    report["elapsed_ms"] = int((time.monotonic() - start) * 1000)
    text = json.dumps(report) if args.json else "\n".join(human)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return EXIT_YES if report["verdict"] else no


def _certificate(report: dict, result) -> list[str]:
    """Enter the weight structure or the summability witness of a threshold
    or total domishold result into the report; return its human lines."""
    lines = []
    s, w = result.structure, result.witness
    if s is not None:
        report["structure"] = {"weights": list(s.weights), "t": s.t}
        lines.append(f"weights: {list(s.weights)}  t: {s.t}")
    if w is not None:
        report["witness"] = {
            "kind": "summability",
            "false_points": [list(p) for p in w.false_points],
            "true_points": [list(p) for p in w.true_points],
        }
        lines.append("2-summability witness found")
    return lines


def _vertices_1based(vertices) -> list[int]:
    return sorted(v + 1 for v in vertices)


def _load_graph(path: str) -> Graph:
    return parse_graph(Path(path).read_text(encoding="utf-8"))


def cmd_recognize_td(args, report: dict) -> list[str]:
    result = recognize_td(_load_graph(args.path))
    report["verdict"] = result.verdict
    return [f"total domishold: {result.verdict}", *_certificate(report, result)]


def cmd_recognize_htd(args, report: dict) -> list[str]:
    result = recognize_htd(_load_graph(args.path))
    report["verdict"] = result.verdict
    human = [f"hereditary total domishold: {result.verdict} (route: {result.note})"]
    if result.witness is not None:
        index, image = result.witness
        name = forbidden_catalog()[index - 1].name
        report["witness"] = {
            "kind": "forbidden_subgraph",
            "index": index,
            "name": name,
            "embedding": [v + 1 for v in image],
        }
        human.append(f"induced F{index} ({name}) on vertices {[v + 1 for v in image]}")
    return human


def cmd_solve(args, report: dict) -> list[str]:
    G = _load_graph(args.path)
    if args.tds:
        rec = recognize_td(G)
        if not rec.verdict:
            report["verdict"] = False
            return ["graph is not total domishold"]
        result = greedy_min_tds(G, rec.structure)
        _certificate(report, rec)  # the structure goes into the report, not the human lines
    else:
        result = approx_dominating_set(G)
    vertices = _vertices_1based(result.vertices)
    report["verdict"] = True
    report["solution"] = {"vertices": vertices, "size": result.size, "method": result.method}
    return [f"{result.method} solution: {vertices} (size {result.size})"]


def cmd_hypergraph(args, report: dict) -> list[str]:
    H = parse_hypergraph(Path(args.path).read_text(encoding="utf-8"))
    if args.dually_sperner:
        pair = dually_sperner_violation(H)
        report["verdict"] = pair is None
        human = [f"dually Sperner: {pair is None}"]
        if pair is not None:
            edges = [_vertices_1based(pair[0]), _vertices_1based(pair[1])]
            report["witness"] = {"kind": "dually_sperner_violation", "edges": edges}
            human.append(f"violating pair: {edges[0]} / {edges[1]}")
        return human
    result = is_threshold(dnf_of_hypergraph(H))
    report["verdict"] = result.is_threshold
    return [f"threshold: {result.is_threshold}", *_certificate(report, result)]


def cmd_equivalence(args, report: dict) -> list[str]:
    if args.census is None:
        chain = check_equivalence_chain(_load_graph(args.path))
        report["legs"] = chain.as_dict()
        report["verdict"] = chain.unanimous()
        marks = "  ".join(f"({name}) {'+' if leg else '-'}" for name, leg in chain.as_dict().items())
        return [marks, f"unanimous: {chain.unanimous()}"]
    if args.census < 0:
        raise ValueError(f"--census order must be non-negative, got {args.census}")
    total = disagreements = 0
    for n in range(args.census + 1):
        for G in all_graphs(n):
            total += 1
            disagreements += not check_equivalence_chain(G).unanimous()
    report["legs"] = {"census_graphs": total, "disagreements": disagreements}
    report["verdict"] = disagreements == 0
    return [f"census n<={args.census}: {total} graphs, {disagreements} disagreements"]


def cmd_generate(args) -> int:
    family, params = args.family, list(args.params)
    kinds = GENERATORS[family][1] if family in GENERATORS else ()
    if Graph in kinds:
        params = [_load_graph(p) for p in params]
    seed = args.seed
    if family == "random_threshold" and seed is None:
        # read per call: the parser is shared by every call of main
        raw = os.environ.get("DOMISHOLD_SEED", str(DEFAULT_SEED))
        try:
            seed = int(raw)
        except ValueError:
            raise ValueError(f"DOMISHOLD_SEED must be an integer, got {raw!r}") from None
    text = write_graph(generate(family, *params, seed=seed))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_YES


def cmd_verify(args) -> int:
    """Re-verify the certificates of an emitted JSON report against the
    original input file. Malformed report content is an error (exit 2)."""
    text = Path(args.path).read_text(encoding="utf-8")
    report = json.loads(Path(args.report).read_text(encoding="utf-8"))
    try:
        checks = _report_checks(text, report)
    except (AttributeError, IndexError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed report: {type(exc).__name__}: {exc}") from exc
    if not checks:
        print("no certificates to verify")
        return EXIT_ERROR
    ok = True
    for name, passed in checks:
        print(f"{name}: {'ok' if passed else 'FAILED'}")
        ok = ok and passed
    return EXIT_YES if ok else EXIT_ERROR


def _report_checks(text: str, report: dict) -> list[tuple[str, bool]]:
    """Check every certificate of the report; each check is named. A
    structure certifies a yes and a witness a no, so a verdict that says
    otherwise fails a check of its own; a verdict that is not a bool or
    null makes the report malformed."""
    verdict = report.get("verdict")
    if verdict is not None and type(verdict) is not bool:
        raise ValueError("malformed report: the verdict must be true, false or null")
    is_hypergraph = any(
        line.strip().startswith("p hgraph") for line in text.splitlines()
    )
    H = parse_hypergraph(text) if is_hypergraph else None
    G = None if is_hypergraph else parse_graph(text)
    checks: list[tuple[str, bool]] = []
    if report.get("structure"):
        weights, t = _integral_structure(report["structure"])
        if is_hypergraph:
            ok = verify_separating_structure(dnf_of_hypergraph(H), SeparatingStructure(weights, t))
            checks.append(("separating structure", ok))
        else:
            checks.append(("total domishold structure", verify_td_structure(G, TdStructure(weights, t))))
    witness = report.get("witness")
    kind = witness["kind"] if witness else None
    if kind == "summability":
        f = dnf_of_hypergraph(H) if is_hypergraph else neighborhood_dnf(G)
        checks.append(("summability witness", verify_summability_witness(f, _witness_from_dict(witness))))
    elif kind == "dually_sperner_violation" and is_hypergraph:
        e, g = (
            frozenset(v - 1 for v in _integers(edge, "vertex numbers"))
            for edge in witness["edges"]
        )
        ok = e in H.edges and g in H.edges and len(e - g) > 1 and len(g - e) > 1
        checks.append(("dually Sperner violation", ok))
    elif kind == "forbidden_subgraph" and not is_hypergraph:
        index, *embedding = _integers(
            [witness["index"], *witness["embedding"]], "the catalog index and vertex numbers"
        )
        if not 1 <= index <= len(forbidden_catalog()):
            raise ValueError(f"malformed report: no catalog graph F{index}")
        image = tuple(v - 1 for v in embedding)
        pattern = forbidden_catalog()[index - 1].graph
        checks.append(("forbidden subgraph embedding", is_induced_embedding(G, pattern, image)))
    # the structures are the certificates of a yes, the witnesses of a no
    if verdict is not None and any(name.endswith("structure") is not verdict for name, _ in checks):
        checks.append((f"verdict {json.dumps(verdict)} against the certificate", False))
    return checks


def _integers(values, what: str) -> list[int]:
    """The values as a list; one that is not an int (a bool or a float
    included) makes the report malformed."""
    values = list(values)
    if any(type(x) is not int for x in values):
        raise ValueError(f"malformed report: {what} must be integers")
    return values


def _integral_structure(d: dict) -> tuple[tuple[int, ...], int]:
    """The weights and threshold of a reported structure."""
    *weights, t = _integers([*d["weights"], d["t"]], "structure values")
    return tuple(weights), t


def _witness_from_dict(d: dict) -> SummabilityWitness:
    return SummabilityWitness(
        tuple(tuple(p) for p in d["false_points"]),
        tuple(tuple(p) for p in d["true_points"]),
    )


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--out", help="write the report to a file instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every subcommand.

    It reads nothing from the environment, so one parser is built per
    process, on the first ``main`` call, and reused by every later call.
    """
    parser = argparse.ArgumentParser(
        prog="domishold",
        description="Recognition and solving toolkit for total domishold graphs, "
        "threshold hypergraphs and threshold positive Boolean functions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_report_parser(name, fill, help, no=EXIT_NO):
        p = sub.add_parser(name, help=help)
        _add_common(p)
        p.set_defaults(func=functools.partial(_reported, fill, no=no))
        return p

    p = add_report_parser("recognize-td", cmd_recognize_td, "total domishold recognition with certificate")
    p.add_argument("path")

    p = add_report_parser("recognize-htd", cmd_recognize_htd, "hereditary recognition via the forbidden catalog")
    p.add_argument("path")

    p = add_report_parser("solve", cmd_solve, "minimum total dominating set / approximate dominating set")
    p.add_argument("path")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--tds", action="store_true", help="minimum total dominating set")
    group.add_argument("--ds", action="store_true", help="2-approximate dominating set")

    p = add_report_parser("hypergraph", cmd_hypergraph, "threshold / dually Sperner hypergraph tests")
    p.add_argument("path")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--threshold", action="store_true")
    group.add_argument("--dually-sperner", action="store_true")

    p = sub.add_parser("generate", help="write a generated graph in the graph file format")
    p.add_argument("family")
    p.add_argument("params", nargs="*")
    p.add_argument("--out")
    p.add_argument(
        "--seed",
        type=int,
        help=f"seed of random_threshold (default: $DOMISHOLD_SEED, else {DEFAULT_SEED})",
    )
    p.set_defaults(func=cmd_generate)

    p = add_report_parser(
        "equivalence",
        cmd_equivalence,
        "graph and split-incidence total domishold verdicts",
        no=EXIT_ERROR,
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("path", nargs="?")
    group.add_argument("--census", type=int, help="sweep all labeled graphs up to this order")

    p = sub.add_parser("verify", help="re-verify certificates from an emitted JSON report")
    p.add_argument("path", help="the original graph or hypergraph file")
    p.add_argument("report", help="the JSON report to check")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code; the parser is built
    once per process and shared by every call."""
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    args._argv = argv
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
