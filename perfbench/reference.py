"""Reference instances: single large inputs, too slow to repeat in a run.

    python3 perfbench/reference.py    # writes perfbench/reference.json

Each instance is decided once through ``domishold.cli.main`` with the
benchmark's own timer, and its report is fed to ``domishold verify``. The
inputs are rebuilt here with the generators' algorithms (seeded ``random``),
and checked against the library's generators where it has one.
"""

from __future__ import annotations

import json
import os
import platform
import random
import sys
import tempfile
import time
from itertools import combinations
from pathlib import Path

import worker  # sets up the import path of the library
import workloads
from workloads import Op

from domishold.fileio import parse_graph
from domishold.graphs import random_graph, random_threshold

OUT = Path(__file__).resolve().parent / "reference.json"


def gnp(seed: int, n: int, p: float = 0.5):
    rng = random.Random(seed)
    return [e for e in combinations(range(n), 2) if rng.random() < p]


def threshold_sequence_edges(seed: int, n: int):
    rng = random.Random(seed)
    seq = ["i"] + [rng.choice("iu") for _ in range(n - 1)]
    return [(u, v) for v in range(n) if seq[v] == "u" for u in range(v)]


def split_incidence_of_weights(seed: int, k: int):
    rng = random.Random(seed)
    w = [rng.randint(1, 9) for _ in range(k)]
    t = sum(w) // 2
    edges = [
        s
        for size in range(1, k + 1)
        for s in combinations(range(k), size)
        if sum(w[i] for i in s) >= t and sum(w[i] for i in s) - min(w[i] for i in s) < t
    ]
    return workloads.split_incidence_edges(k, edges)


def instances():
    """(name, command, n, edges, library graph or None, expected verdict)."""
    e = gnp(22, 22)
    yield "gnp-22-seed-22", "recognize-td", 22, e, random_graph(random.Random(22), 22, 0.5), None
    n, e = split_incidence_of_weights(5, 12)
    yield "split-incidence-k12-seed-5", "recognize-td", n, e, None, True
    for n in (20, 40):
        e = threshold_sequence_edges(2, n)
        yield f"random-threshold-seed-2-n{n}", "recognize-htd", n, e, random_threshold(2, n), True


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    results = []
    scratch = Path(__file__).resolve().parent.parent / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name, command, n, edges, library_graph, expected in instances():
            text = workloads.graph_text(n, edges)
            if library_graph is not None and parse_graph(text) != library_graph:
                raise SystemExit(f"{name}: rebuilt input differs from the library generator")
            path = Path(tmp) / f"{name}.txt"
            path.write_text(text, encoding="utf-8")
            op = Op(name, n, expected, argv=[command, str(path), "--json", "--out", str(path.with_suffix(".json"))],
                    input_path=str(path), report_path=str(path.with_suffix(".json")))
            record = {"kind": name, "n": n, "expected": expected}
            worker.run_cli_op(op, record, None)
            print(f"{name}: {command} n={n} verdict={record.get('verdict')} "
                  f"{record['ms'] / 1e3:.2f} s {record['status']}", flush=True)
            results.append({"name": name, "command": command, "n": n, "expected": expected,
                            "verdict": record.get("verdict"), "seconds": record["ms"] / 1e3,
                            "status": record["status"], "note": record["why"]})
    OUT.write_text(json.dumps({
        "measured": time.strftime("%Y-%m-%d"),
        "machine": f"{cpu_model()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "timer": "time.perf_counter around domishold.cli.main, one call per instance",
        "instances": results,
    }, indent=2) + "\n", encoding="utf-8")
    return 0 if all(r["status"] != "failed" for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
