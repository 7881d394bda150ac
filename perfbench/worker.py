"""One benchmark process: set up a workload, then run it as a closed loop.

Started by ``run.py`` in a fresh interpreter for every set-up sample and
every measured run, because the library keeps process-wide caches and a
command-line user starts cold on every call. It writes its results as JSON
to the file named by ``--result``.

    python3 perfbench/worker.py --workload td-mix --seed 1 --seconds 30 \
        --dir RUNDIR --result RESULT.json [--trace] [--max-ops N] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import domishold.cli  # noqa: E402
import domishold.graphs  # noqa: E402
import domishold.recognition  # noqa: E402

import oracles  # noqa: E402
import spans  # noqa: E402
from workloads import Op, Rounds  # noqa: E402

# Rounds generated at set-up; a run that needs more generates them between
# rounds, outside the timed calls. Census builds each block's graphs as it
# reaches it, so its set-up only orders the blocks.
SETUP_ROUNDS = {"td-mix": 80, "htd-scan": 150, "census": 0}

# Peak RSS is read once this many operations are done (or at the end of a
# shorter run): the library's caches grow with every operation, so a fixed
# amount of work keeps the figure comparable between a slower and a faster
# program. About 40 % of what a 35 s run completes today.
RSS_AT_OPS = {"td-mix": 400, "htd-scan": 150, "census": 6000}

# The host's speed drifts by 10-25 % over minutes. A fixed pure-Python probe
# is timed at least this often between rounds; run.py scales operation times
# by the probe's mean so that runs made at different moments compare.
PROBE_EVERY_S = 0.25

CERTIFIED, UNCERTIFIED, FAILED = "certified", "uncertified", "failed"


def speed_probe_ms() -> float:
    """Time a fixed loop over the kinds of work the library does: frozensets,
    dicts, small integers, list comprehensions and Fractions."""
    t0 = time.perf_counter()
    counts: dict[frozenset, int] = {}
    for i in range(3000):
        key = frozenset((i & 7, (i >> 3) & 7, (i >> 6) & 7))
        counts[key] = counts.get(key, 0) + len([j for j in range(8) if i >> j & 1])
    total = Fraction(0)
    for i in range(1, 80):
        total += Fraction(1, i)
    return (time.perf_counter() - t0) * 1e3


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run ``domishold.cli.main`` in-process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = domishold.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def verify_status(op: Op) -> tuple[str, str]:
    """Feed the report to ``domishold verify``: certified when every
    certificate is accepted, uncertified when there is none or the verifier
    hits its size cap, failed when a certificate is rejected."""
    try:
        rc, out, err = call_cli(["verify", op.input_path, op.report_path])
    except Exception as exc:  # the verifier crashed on the program's own report
        return FAILED, f"verify raised {type(exc).__name__}: {exc}"
    if "FAILED" in out or err.startswith("error:"):
        return FAILED, f"certificate rejected: {(out + err).strip()}"
    if rc == 0:
        return CERTIFIED, ""
    if "no certificates" in out or err.startswith("unknown:"):
        return UNCERTIFIED, (out + err).strip()
    return FAILED, f"verify exit {rc}: {(out + err).strip()}"


def run_cli_op(op: Op, record: dict, tracer) -> None:
    if tracer:
        tracer.begin("op")
    t0 = time.perf_counter()
    try:
        rc, _, err = call_cli(op.argv)
    except Exception as exc:
        record["ms"] = (time.perf_counter() - t0) * 1e3
        record.update(status=FAILED, why=f"raised {type(exc).__name__}: {exc}")
        return
    record["ms"] = (time.perf_counter() - t0) * 1e3
    if rc not in (0, 1):
        record.update(status=FAILED, why=f"exit {rc}: {err.strip()}")
        return
    try:
        verdict = json.loads(Path(op.report_path).read_text(encoding="utf-8"))["verdict"]
    except (OSError, ValueError, KeyError) as exc:
        record.update(status=FAILED, why=f"unreadable report: {exc}")
        return
    record["verdict"] = verdict
    if verdict is not (rc == 0):
        record.update(status=FAILED, why=f"report verdict {verdict!r} but exit {rc}")
        return
    if op.expected is not None and verdict != op.expected:
        record.update(status=FAILED, why=f"verdict {verdict}, expected {op.expected}")
        return
    if tracer:
        tracer.begin("verify")
    t0 = time.perf_counter()
    status, why = verify_status(op)
    record["verify_ms"] = (time.perf_counter() - t0) * 1e3
    record.update(status=status, why=why)


def run_census_op(op: Op, record: dict, tracer) -> None:
    G = domishold.graphs.Graph.from_edges(op.n, op.edges)
    if tracer:
        tracer.begin("op")
    t0 = time.perf_counter()
    try:
        report = domishold.recognition.check_equivalence_chain(G)
    except Exception as exc:
        record["ms"] = (time.perf_counter() - t0) * 1e3
        record.update(status=FAILED, why=f"raised {type(exc).__name__}: {exc}")
        return
    record["ms"] = (time.perf_counter() - t0) * 1e3
    legs = tuple(report.legs)
    expected = oracles.is_td(op.n, op.edges)
    record["verdict"] = legs[0]
    record["expected"] = expected
    if None in legs or any(leg != expected for leg in legs):
        record.update(status=FAILED, why=f"legs {legs}, brute force says {expected}")
    else:
        record.update(status=UNCERTIFIED, why="")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--dir", required=True, help="directory for inputs and reports")
    p.add_argument("--result", required=True, help="JSON file to write the results to")
    p.add_argument("--trace", action="store_true", help="record spans and per-layer metrics")
    p.add_argument("--max-ops", type=int, help="stop after this many operations instead of at the deadline")
    p.add_argument("--setup-only", action="store_true", help="exit once set-up is done")
    args = p.parse_args()

    rounds = Rounds(args.workload, args.seed, Path(args.dir))
    pending = [rounds.round(r) for r in range(SETUP_ROUNDS[args.workload])]
    ready_at = time.monotonic()
    result = {"ready_at": ready_at}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    run_op = run_census_op if args.workload == "census" else run_cli_op
    records: list[dict] = []
    rss_mib = None
    deadline = ready_at + args.seconds
    probes = [speed_probe_ms()]
    last_probe = time.monotonic()
    r = 0
    while True:
        if args.max_ops is not None:
            if len(records) >= args.max_ops:
                break
        elif time.monotonic() >= deadline:
            break
        if time.monotonic() - last_probe >= PROBE_EVERY_S:
            probes.append(speed_probe_ms())
            last_probe = time.monotonic()
        ops = pending[r] if r < len(pending) else rounds.round(r)
        r += 1
        for op in ops:
            if args.max_ops is not None and len(records) >= args.max_ops:
                break
            record = {"kind": op.kind, "n": op.n, "expected": op.expected, "verify_ms": 0.0}
            run_op(op, record, tracer)
            records.append(record)
            if len(records) == RSS_AT_OPS[args.workload]:
                rss_mib = peak_rss_mib()
    result.update(
        records=records,
        probe_ms=sum(probes) / len(probes),
        rounds=r,
        loop_s=time.monotonic() - ready_at,
        peak_rss_mib=rss_mib if rss_mib is not None else peak_rss_mib(),
        rss_at_ops=min(len(records), RSS_AT_OPS[args.workload]),
    )
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
        result["lp_rows"] = sorted(tracer.lp_rows)
        spans_path = Path(args.result).with_name(f"spans-{args.workload}-{args.seed}.tsv.gz")
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
