"""Command-line front end: parse graph/hypergraph/DNF files, dispatch the
recognizers and solvers, and emit human-readable or JSON reports whose
certificates re-verify through the ``verify`` subcommand.

Exit codes are a stable contract: 0 = yes/success, 1 = no, 2 = error or
unknown.
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
from .errors import CapabilityError
from .fileio import parse_graph, parse_hypergraph, write_graph
from .graphs import Graph, generate, is_induced_embedding
from .hypergraphs import dually_sperner_violation
from .recognition import (
    TdStructure,
    check_equivalence_chain,
    neighborhood_dnf,
    recognize_htd,
    recognize_td,
    verify_td_structure,
)
from .solvers import approx_dominating_set, gamma_bruteforce, gamma_t_bruteforce, greedy_min_tds

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2


def _report_skeleton(args) -> dict:
    return {
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


def _emit(args, report: dict, human_lines: list[str]) -> None:
    text = json.dumps(report) if args.json else "\n".join(human_lines)
    if getattr(args, "out", None):
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _vertices_1based(vertices) -> list[int]:
    return sorted(v + 1 for v in vertices)


def _structure_dict(s) -> dict:
    return {"weights": list(s.weights), "t": s.t}


def _summability_dict(w: SummabilityWitness) -> dict:
    return {
        "kind": "summability",
        "false_points": [list(p) for p in w.false_points],
        "true_points": [list(p) for p in w.true_points],
    }


def _load_graph(path: str) -> Graph:
    return parse_graph(Path(path).read_text(encoding="utf-8"))


def cmd_recognize_td(args) -> int:
    report = _report_skeleton(args)
    start = time.monotonic()
    G = _load_graph(args.path)
    result = recognize_td(G)
    report["elapsed_ms"] = int((time.monotonic() - start) * 1000)
    human = [f"total domishold: {result.verdict}"]
    report["verdict"] = result.verdict
    if result.structure is not None:
        report["structure"] = _structure_dict(result.structure)
        human.append(f"weights: {list(result.structure.weights)}  t: {result.structure.t}")
    if result.witness is not None:
        report["witness"] = _summability_dict(result.witness)
        human.append("2-summability witness on the neighborhood function found")
    _emit(args, report, human)
    return EXIT_YES if result.verdict else EXIT_NO


def cmd_recognize_htd(args) -> int:
    report = _report_skeleton(args)
    start = time.monotonic()
    G = _load_graph(args.path)
    result = recognize_htd(G)
    report["elapsed_ms"] = int((time.monotonic() - start) * 1000)
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
    _emit(args, report, human)
    return EXIT_YES if result.verdict else EXIT_NO


def cmd_solve(args) -> int:
    report = _report_skeleton(args)
    start = time.monotonic()

    def emit(lines):
        report["elapsed_ms"] = int((time.monotonic() - start) * 1000)
        _emit(args, report, lines)

    G = _load_graph(args.path)
    human: list[str] = []
    if args.tds:
        rec = recognize_td(G)
        if not rec.verdict:
            report["verdict"] = False
            human.append("graph is not total domishold")
            emit(human)
            return EXIT_NO
        result = greedy_min_tds(G, rec.structure)
        report["structure"] = _structure_dict(rec.structure)
    else:
        result = approx_dominating_set(G)
    solution = {
        "vertices": _vertices_1based(result.vertices),
        "size": result.size,
        "method": result.method,
    }
    human.append(f"{result.method} solution: {solution['vertices']} (size {result.size})")
    if args.oracle:
        oracle = (
            gamma_t_bruteforce(G, args.max_oracle_n)
            if args.tds
            else gamma_bruteforce(G, args.max_oracle_n)
        )
        agrees = (
            oracle.size == result.size if args.tds else result.size <= 2 * oracle.size
        )
        solution["oracle_size"] = oracle.size
        solution["agrees"] = agrees
        human.append(f"oracle size: {oracle.size} ({'ok' if agrees else 'MISMATCH'})")
        if not agrees:
            report["solution"] = solution
            report["error"] = "solver disagrees with brute-force oracle"
            emit(human)
            return EXIT_ERROR
    report["verdict"] = True
    report["solution"] = solution
    emit(human)
    return EXIT_YES


def cmd_hypergraph(args) -> int:
    report = _report_skeleton(args)
    start = time.monotonic()
    H = parse_hypergraph(Path(args.path).read_text(encoding="utf-8"))
    human: list[str] = []
    if args.dually_sperner:
        pair = dually_sperner_violation(H)
        report["verdict"] = pair is None
        human.append(f"dually Sperner: {pair is None}")
        if pair is not None:
            report["witness"] = {
                "kind": "dually_sperner_violation",
                "edges": [_vertices_1based(pair[0]), _vertices_1based(pair[1])],
            }
            human.append(
                f"violating pair: {_vertices_1based(pair[0])} / {_vertices_1based(pair[1])}"
            )
    else:
        result = is_threshold(dnf_of_hypergraph(H))
        report["verdict"] = result.is_threshold
        human.append(f"threshold: {result.is_threshold}")
        if result.structure is not None:
            report["structure"] = _structure_dict(result.structure)
            human.append(
                f"weights: {list(result.structure.weights)}  t: {result.structure.t}"
            )
        if result.witness is not None:
            report["witness"] = _summability_dict(result.witness)
            human.append("2-summability witness found")
    report["elapsed_ms"] = int((time.monotonic() - start) * 1000)
    _emit(args, report, human)
    return EXIT_YES if report["verdict"] else EXIT_NO


def cmd_generate(args) -> int:
    family = args.family
    params: list = list(args.params)
    file_families = {"add_universal", "add_isolated", "add_pendant", "disjoint_union", "join"}
    if family in file_families:
        params = [_load_graph(p) for p in params]
    if family == "random_threshold":
        # parameter order (seed, n); the seed defaults to --seed
        params = [args.seed, int(params[0])]
    G = generate(family, *params)
    text = write_graph(G)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_YES


def cmd_equivalence(args) -> int:
    report = _report_skeleton(args)
    start = time.monotonic()
    if args.census is not None:
        from .graphs import all_graphs

        if args.census < 0:
            raise ValueError(f"--census order must be non-negative, got {args.census}")

        disagreements = 0
        total = 0
        for n in range(args.census + 1):
            for G in all_graphs(n):
                total += 1
                if not check_equivalence_chain(G).unanimous():
                    disagreements += 1
        report["legs"] = {"census_graphs": total, "disagreements": disagreements}
        report["verdict"] = disagreements == 0
        report["elapsed_ms"] = int((time.monotonic() - start) * 1000)
        _emit(
            args,
            report,
            [f"census n<={args.census}: {total} graphs, {disagreements} disagreements"],
        )
        return EXIT_YES if disagreements == 0 else EXIT_ERROR
    G = _load_graph(args.path)
    chain = check_equivalence_chain(G)
    report["legs"] = chain.as_dict()
    report["verdict"] = chain.unanimous()
    report["elapsed_ms"] = int((time.monotonic() - start) * 1000)
    marks = "  ".join(f"({name}) {'+' if leg else '-'}" for name, leg in chain.as_dict().items())
    _emit(args, report, [marks, f"unanimous: {chain.unanimous()}"])
    return EXIT_YES if chain.unanimous() else EXIT_ERROR


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
        e, g = (frozenset(v - 1 for v in edge) for edge in witness["edges"])
        ok = e in H.edges and g in H.edges and len(e - g) > 1 and len(g - e) > 1
        checks.append(("dually Sperner violation", ok))
    elif kind == "forbidden_subgraph" and not is_hypergraph:
        index = witness["index"]
        if not 1 <= index <= len(forbidden_catalog()):
            raise ValueError(f"malformed report: no catalog graph F{index}")
        image = tuple(v - 1 for v in witness["embedding"])
        pattern = forbidden_catalog()[index - 1].graph
        checks.append(("forbidden subgraph embedding", is_induced_embedding(G, pattern, image)))
    # the structures are the certificates of a yes, the witnesses of a no
    if verdict is not None and any(name.endswith("structure") is not verdict for name, _ in checks):
        checks.append((f"verdict {json.dumps(verdict)} against the certificate", False))
    return checks


def _integral_structure(d: dict) -> tuple[tuple[int, ...], int]:
    """The weights and threshold of a reported structure; a value that is
    not an int (a bool or a float included) makes the report malformed."""
    weights, t = tuple(d["weights"]), d["t"]
    if any(type(x) is not int for x in (*weights, t)):
        raise ValueError("malformed report: structure values must be integers")
    return weights, t


def _witness_from_dict(d: dict) -> SummabilityWitness:
    return SummabilityWitness(
        tuple(tuple(p) for p in d["false_points"]),
        tuple(tuple(p) for p in d["true_points"]),
    )


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--out", help="write the report to a file instead of stdout")


DEFAULT_SEED = 20130919


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every subcommand.

    It reads nothing from the environment, so one parser is built per
    process, on the first ``main`` call, and reused by every later call.
    The ``--seed`` default is left as None and resolved by ``main``.
    """
    parser = argparse.ArgumentParser(
        prog="domishold",
        description="Recognition and solving toolkit for total domishold graphs, "
        "threshold hypergraphs and threshold positive Boolean functions.",
    )
    seed_parent = argparse.ArgumentParser(add_help=False)
    seed_parent.add_argument(
        "--seed",
        type=int,
        help=f"random seed (default: $DOMISHOLD_SEED, else {DEFAULT_SEED})",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[seed_parent], **kwargs)

    p = add_parser("recognize-td", help="total domishold recognition with certificate")
    p.add_argument("path")
    _add_common(p)
    p.set_defaults(func=cmd_recognize_td)

    p = add_parser("recognize-htd", help="hereditary recognition via the forbidden catalog")
    p.add_argument("path")
    _add_common(p)
    p.set_defaults(func=cmd_recognize_htd)

    p = add_parser("solve", help="minimum total dominating set / approximate dominating set")
    p.add_argument("path")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--tds", action="store_true", help="minimum total dominating set")
    group.add_argument("--ds", action="store_true", help="2-approximate dominating set")
    p.add_argument("--oracle", action="store_true", help="cross-check with brute force")
    p.add_argument("--max-oracle-n", type=int, default=16)
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = add_parser("hypergraph", help="threshold / dually Sperner hypergraph tests")
    p.add_argument("path")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--threshold", action="store_true")
    group.add_argument("--dually-sperner", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_hypergraph)

    p = add_parser("generate", help="write a generated graph in the graph file format")
    p.add_argument("family")
    p.add_argument("params", nargs="*")
    p.add_argument("--out")
    p.set_defaults(func=cmd_generate)

    p = add_parser("equivalence", help="graph and split-incidence total domishold verdicts")
    p.add_argument("path", nargs="?")
    p.add_argument("--census", type=int, help="sweep all labeled graphs up to this order")
    _add_common(p)
    p.set_defaults(func=cmd_equivalence)

    p = add_parser("verify", help="re-verify certificates from an emitted JSON report")
    p.add_argument("path", help="the original graph or hypergraph file")
    p.add_argument("report", help="the JSON report to check")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.

    The parser is built once per process and shared by every call; the
    ``--seed`` default is resolved per call from ``DOMISHOLD_SEED``.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = argv
    if args.subcommand == "equivalence" and args.path is None and args.census is None:
        parser.error("equivalence needs a graph file or --census N")
    try:
        if args.seed is None:
            args.seed = int(os.environ.get("DOMISHOLD_SEED", DEFAULT_SEED))
        return args.func(args)
    except CapabilityError as exc:
        print(f"unknown: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
