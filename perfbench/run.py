"""Seeded benchmark for total domishold (TD) and hereditary TD recognition.

    python3 perfbench/run.py --workload td-mix --seed 1 --seconds 30 --trace 0

Workloads: td-mix, htd-scan, census (or ``all`` to run the three in turn).
Each run is one worker process, one client and a closed loop; see
``perfbench/README.md`` for the workloads and the metrics. With ``--trace 0``
the run prints the end-to-end metrics; with ``--trace 1`` it runs operations
traced for half of ``--seconds``, replays the same operations untraced, and
prints the per-layer metrics and the tracing overhead. The last line of the
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("td-mix", "htd-scan", "census")
SETUP_SAMPLES = 3  # set-ups per untraced run; setup_s is their median
RUN_BUDGET_S = 170  # a single-workload invocation must end within 180 s
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it
# Operation times are reported at reference speed: scaled by REFERENCE_PROBE_MS
# over the mean time of the worker's speed probe during the run. The probe
# takes about 7 ms on the 2-CPU Xeon the benchmark was built on.
REFERENCE_PROBE_MS = 7.0
# The tail percentile of each workload: the highest of p90, p99, p99.9 that
# keeps at least TAIL_BEYOND samples beyond it at the workload's usual sample
# count. It is fixed, not worked out per run, so that a run with a few more
# operations does not jump to a higher percentile.
TAIL_PERCENTILE = {"td-mix": 90.0, "htd-scan": 90.0, "census": 99.0}


class BenchError(RuntimeError):
    pass


def declared(kind: str, measured: dict[str, float]) -> dict[str, tuple[float, str]]:
    """The metrics BENCHMARK.json declares under ``kind``, with their units."""
    specs = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]
    missing = [s["name"] for s in specs if s["name"] not in measured]
    if missing:
        raise BenchError(f"{kind} metrics not measured: {', '.join(missing)}")
    return {s["name"]: (measured[s["name"]], s["unit"]) for s in specs}


def worker(workload, seed, seconds, rundir: Path, tag, deadline, *extra) -> dict:
    """Run one worker process to completion and return its results."""
    result = rundir.parent / f"{rundir.name}-{tag}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--dir", str(rundir / tag), "--result", str(result), *extra,
    ]
    started = time.monotonic()
    timeout = deadline - started
    if timeout <= 0:
        raise BenchError(f"no time left for the {tag} process")
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{tag} process exceeded the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{tag} process exited with code {proc.returncode}")
    data = json.loads(result.read_text(encoding="utf-8"))
    data["setup_s"] = data["ready_at"] - started
    shutil.rmtree(rundir / tag, ignore_errors=True)
    result.unlink()
    return data


def tail(sorted_ms: list[float], percentile: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) by nearest rank. Falls back to a
    lower percentile when fewer than TAIL_BEYOND samples lie beyond."""
    n = len(sorted_ms)
    for p in (percentile, 90.0, 75.0, 50.0):
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= TAIL_BEYOND or p == 50.0:
            return p, sorted_ms[rank - 1], n - rank


def counts(records: list[dict]) -> dict:
    status = [r["status"] for r in records]
    return {s: status.count(s) for s in ("certified", "uncertified", "failed")}


def mix(records: list[dict]) -> str:
    """What the run contained: answer shares, sizes, kinds."""
    n = len(records)
    yes = sum(1 for r in records if (r["expected"] if r["expected"] is not None else r.get("verdict")))
    kinds: dict[str, int] = {}
    for r in records:
        kinds[r["kind"]] = kinds.get(r["kind"], 0) + 1
    small = sum(1 for r in records if r["n"] <= 10) / n
    medium = sum(1 for r in records if r["n"] <= 16) / n
    return f"  mix: yes {yes / n:.3f}  n<=10 {small:.3f}  n<=16 {medium:.3f}  kinds {kinds}"


def end_to_end(workload, seed, seconds, rundir, deadline) -> tuple[dict, list[str], list[dict]]:
    setups = [
        worker(workload, seed, seconds, rundir, f"setup{i}", deadline, "--setup-only")["setup_s"]
        for i in range(SETUP_SAMPLES - 1)
    ]
    run = worker(workload, seed, seconds, rundir, "run", deadline)
    setups.append(run["setup_s"])
    records = run["records"]
    speed = REFERENCE_PROBE_MS / run["probe_ms"]
    raw = sorted(r["ms"] for r in records)
    ms = [t * speed for t in raw]
    c = counts(records)
    pct, tail_ms, beyond = tail(ms, TAIL_PERCENTILE[workload])
    n = len(records)
    metrics = declared("end_to_end", {
        "verdict_ms.p50": statistics.median(ms),
        "verdict_ms.tail": tail_ms,
        "verdicts_per_s": n / (sum(ms) / 1e3),
        "peak_rss_mib": run["peak_rss_mib"],
        "setup_s": statistics.median(setups),
    })
    certified = "n/a" if workload == "census" else f"{c['certified'] / n:.4f}"
    lines = [
        f"workload {workload}  seed {seed}  loop {run['loop_s']:.1f} s  rounds {run['rounds']}  "
        f"operations {n}  failed {c['failed']}",
        *(f"  {name:<18} {value:.6g} {unit}" for name, (value, unit) in metrics.items()),
        f"  {'':<18} tail is p{pct:g} of {n} samples ({beyond} beyond); "
        f"setup_s is the median of {len(setups)} set-ups; peak_rss_mib is read after "
        f"{run['rss_at_ops']} operations",
        f"  {'':<18} times are at reference speed: measured times x {speed:.4f} (speed probe "
        f"{run['probe_ms']:.3f} ms against {REFERENCE_PROBE_MS} ms); measured p50 "
        f"{statistics.median(raw):.6g} ms, tail {tail(raw, pct)[1]:.6g} ms, "
        f"{n / (sum(raw) / 1e3):.6g} 1/s",
        f"  {'failed_share':<18} {c['failed'] / n:.4f} share",
        f"  {'certified_share':<18} {certified} share",
        mix(records),
    ]
    return metrics, lines, records


def per_layer(workload, seed, seconds, rundir, deadline) -> tuple[dict, list[str], list[dict]]:
    # the traced pass gets half the run and the untraced replay of the same
    # operations about the other half, so a traced run lasts as long as an
    # untraced one
    traced = worker(workload, seed, seconds / 2, rundir, "traced", deadline, "--trace")
    records = traced["records"]
    n = len(records)
    replay = worker(workload, seed, seconds, rundir, "untraced", deadline, "--max-ops", str(n))
    # both passes at reference speed, so that drift between them cancels
    traced_ms = sum(r["ms"] for r in records) * REFERENCE_PROBE_MS / traced["probe_ms"]
    untraced_ms = sum(r["ms"] for r in replay["records"]) * REFERENCE_PROBE_MS / replay["probe_ms"]
    c = counts(records)
    both = records + replay["records"]
    layers = dict(traced["layers"])
    layers["verify.certified_share"] = 0.0 if workload == "census" else c["certified"] / n
    layers["answers.failed_share"] = c["failed"] / n
    layers["trace.overhead_ms"] = (traced_ms - untraced_ms) / n
    layers["trace.overhead_share"] = (traced_ms - untraced_ms) / untraced_ms
    metrics = declared("per_layer", layers)
    rows = traced["lp_rows"]
    row_deciles = (
        "/".join(str(rows[min(len(rows) - 1, int(q * len(rows)))]) for q in (0.1, 0.5, 0.9))
        if rows else "none"
    )
    lines = [
        f"workload {workload}  seed {seed}  traced {traced_ms / 1e3:.2f} s  untraced "
        f"{untraced_ms / 1e3:.2f} s (at reference speed) over the same {n} operations  failed {counts(both)['failed']}",
        *(f"  {name:<40} {value:.6g} {unit}" for name, (value, unit) in metrics.items()),
        f"  LP rows p10/p50/p90 over {len(rows)} LPs: {row_deciles}",
        mix(records),
        f"  spans written to {Path(traced['spans_file']).relative_to(ROOT)}",
    ]
    return metrics, lines, both


def run_workload(workload, seed, seconds, trace) -> tuple[dict, list[str], list[dict]]:
    rundir = ROOT / ".perfbench" / f"{workload}-{seed}-{'traced' if trace else 'e2e'}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        measure = per_layer if trace else end_to_end
        return measure(workload, seed, seconds, rundir, deadline)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def main() -> int:
    p = argparse.ArgumentParser(description="Seeded TD/HTD recognition benchmark.")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "domishold" / "__init__.py").is_file():
        print(f"error: no domishold sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    try:
        for w in workloads:
            m, lines, records = run_workload(w, args.seed, args.seconds, args.trace)
            print("\n".join(lines), flush=True)
            for r in records:
                if r["status"] == "failed":
                    print(f"  FAILED {r['kind']} n={r['n']}: {r['why']}", file=sys.stderr)
            prefix = f"{w}." if args.workload == "all" else ""
            metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
            attempted += len(records)
            failed += counts(records)["failed"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
