"""Runtime tracing of the library's layers from outside the source tree.

``install`` replaces, in every ``domishold`` module, each binding of a
traced function by a wrapper that records a span: name, start, end, parent
span and operation id. No source file is edited; the wrappers catch every
call that goes through a module global or an imported name. Spans are kept
in flat arrays in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import gzip
import importlib
import pkgutil
import time
from array import array
from collections import Counter, defaultdict
from functools import wraps
from pathlib import Path

CATALOG_SIZE = 13

# (defining module, function): every binding of these is wrapped.
TRACED = (
    ("cli", "main"),
    ("fileio", "parse_graph"),
    ("fileio", "parse_hypergraph"),
    ("recognition", "recognize_td"),
    ("recognition", "recognize_htd"),
    ("recognition", "check_equivalence_chain"),
    ("recognition", "neighborhood_dnf"),
    ("recognition", "verify_td_structure"),
    ("boolean", "is_threshold"),
    ("boolean", "threshold_in_td_sense"),
    ("boolean", "maximal_false_points"),
    ("boolean", "make_dnf"),
    ("boolean", "dnf_of_hypergraph"),
    ("boolean", "is_k_summable"),
    ("boolean", "verify_separating_structure"),
    ("boolean", "verify_summability_witness"),
    ("hypergraphs", "minimal_transversals"),
    ("hypergraphs", "reduced_neighborhood_hypergraph"),
    ("hypergraphs", "split_incidence_graph"),
    ("hypergraphs", "neighborhood_split_graph"),
    ("lp", "lp_feasible"),
    ("graphs", "find_induced"),
    ("graphs", "is_induced_embedding"),
)


class Tracer:
    """Spans and counters of one run, grouped by operation.

    Each operation has a kind: ``op`` for the measured call, ``verify`` for
    the certificate check that follows it. Counters are kept per kind.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.op_kinds: list[str] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.maxima: dict[str, Counter] = defaultdict(Counter)
        self.lp_rows: list[int] = []  # rows of every LP of a measured operation
        self._stack: list[int] = []

    def begin(self, kind: str) -> None:
        self.op_kinds.append(kind)

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(len(self.op_kinds) - 1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, value: int = 1) -> None:
        self.counts[self.op_kinds[-1]][key] += value

    def maximum(self, key: str, value: int) -> None:
        m = self.maxima[self.op_kinds[-1]]
        m[key] = max(m[key], value)

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("span\tparent\top\top_kind\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.name)):
                op = self.op[i]
                out.write(
                    f"{i}\t{self.parent[i]}\t{op}\t{self.op_kinds[op]}\t"
                    f"{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\n"
                )


# ---------------------------------------------------------------------------
# Counters recorded at the layer boundaries


def _note_lp(tr: Tracer, args, kwargs, result) -> None:
    tr.count("lp.calls")
    tr.count("lp.rows", len(args[1]))
    if tr.op_kinds[-1] == "op":
        tr.lp_rows.append(len(args[1]))
    tr.count("lp.cols", args[0])
    if result is None:
        tr.count("lp.infeasible")
    else:
        bits = max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in result), default=0)
        tr.maximum("lp.point_bits", bits)


def _note_is_threshold(tr: Tracer, args, kwargs, result) -> None:
    f = args[0]
    if not (f.is_constant_one() or f.is_constant_zero()):
        tr.count("boolean.is_threshold.non_constant")


def _note_transversals(tr: Tracer, args, kwargs, result) -> None:
    tr.count("hypergraphs.minimal_transversals.calls")
    tr.count("hypergraphs.transversals", len(result))


def _note_make_dnf(tr: Tracer, args, kwargs, result) -> None:
    tr.count("boolean.make_dnf.calls")
    tr.count("boolean.implicants", len(result.implicants))


def _note_k_summable(tr: Tracer, args, kwargs, result) -> None:
    tr.count("boolean.is_k_summable.calls")
    if result is not None:
        tr.count("boolean.witness_found")


def _note_find_induced(tr: Tracer, args, kwargs, result) -> None:
    tr.count("graphs.find_induced.calls")
    if result is not None:
        tr.count("graphs.find_induced.hits")


def _note_parse(tr: Tracer, args, kwargs, result) -> None:
    tr.count("fileio.bytes", len(args[0].encode("utf-8")))


NOTES = {
    "lp.lp_feasible": _note_lp,
    "boolean.is_threshold": _note_is_threshold,
    "hypergraphs.minimal_transversals": _note_transversals,
    "boolean.make_dnf": _note_make_dnf,
    "boolean.is_k_summable": _note_k_summable,
    "graphs.find_induced": _note_find_induced,
    "fileio.parse_graph": _note_parse,
    "fileio.parse_hypergraph": _note_parse,
}


def _wrap(tr: Tracer, name: str, fn, span_name=None):
    note = NOTES.get(name)

    @wraps(fn)
    def traced(*args, **kwargs):
        idx = tr.open(span_name(args) if span_name else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.close(idx)
        if note is not None:
            note(tr, args, kwargs, result)
        return result

    return traced


def install(tr: Tracer) -> None:
    """Wrap every binding of the TRACED functions in all library modules.

    A function missing from the library is skipped; its metrics read 0.
    """
    import domishold

    modules = [domishold] + [
        importlib.import_module(f"domishold.{info.name}")
        for info in pkgutil.iter_modules(domishold.__path__)
    ]
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    patterns = {}
    if "catalog" in by_name:
        patterns = {id(e.graph): e.index for e in by_name["catalog"].forbidden_catalog()}

    def pattern_span(args):
        index = patterns.get(id(args[1]))
        return f"graphs.find_induced.F{index}" if index else "graphs.find_induced"

    for module_name, fn_name in TRACED:
        original = getattr(by_name.get(module_name), fn_name, None)
        if original is None:
            continue
        name = f"{module_name}.{fn_name}"
        span_name = pattern_span if name == "graphs.find_induced" else None
        wrapped = _wrap(tr, name, original, span_name)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


# ---------------------------------------------------------------------------
# Per-layer metrics


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics over the measured operations.

    Times are inclusive span times in milliseconds per operation, except the
    ``*.self_ms`` metrics, which sum the self time (span time minus the time
    of its child spans) of every span of that module. Counts are per
    operation; rows, columns, implicants and transversals are per call.
    Verification spans are reported only under ``verify.*`` and
    ``recognition.verify_td_structure_ms``.
    """
    n_spans = len(tr.name)
    child = [0] * n_spans
    for i in range(n_spans):
        p = tr.parent[i]
        if p >= 0:
            child[p] += tr.end[i] - tr.start[i]
    incl: dict[str, dict[str, int]] = {"op": Counter(), "verify": Counter()}
    self_t: dict[str, dict[str, int]] = {"op": Counter(), "verify": Counter()}
    for i in range(n_spans):
        kind = tr.op_kinds[tr.op[i]]
        name = tr.names[tr.name[i]]
        dur = tr.end[i] - tr.start[i]
        incl[kind][name] += dur
        self_t[kind][_module(name)] += dur - child[i]
    ops = max(1, tr.op_kinds.count("op"))
    c, mx = tr.counts["op"], tr.maxima["op"]

    def ms(kind, *names):
        return sum(incl[kind][n] for n in names) / ops / 1e6

    def share(num, den):
        return num / den if den else 0.0

    patterns = [f"graphs.find_induced.F{i}" for i in range(1, CATALOG_SIZE + 1)]
    lp_calls = c["lp.calls"]
    m = {
        "lp.lp_feasible_ms": ms("op", "lp.lp_feasible"),
        "lp.calls": lp_calls / ops,
        "lp.rows": share(c["lp.rows"], lp_calls),
        "lp.cols": share(c["lp.cols"], lp_calls),
        "lp.point_bits": float(mx["lp.point_bits"]),
        "lp.infeasible_share": share(c["lp.infeasible"], lp_calls),
        "hypergraphs.minimal_transversals_ms": ms("op", "hypergraphs.minimal_transversals"),
        "hypergraphs.transversals": share(c["hypergraphs.transversals"], c["hypergraphs.minimal_transversals.calls"]),
        "hypergraphs.self_ms": self_t["op"]["hypergraphs"] / ops / 1e6,
        "boolean.maximal_false_points_ms": ms("op", "boolean.maximal_false_points"),
        "boolean.is_threshold_ms": ms("op", "boolean.is_threshold"),
        "boolean.make_dnf_ms": ms("op", "boolean.make_dnf"),
        "boolean.implicants": share(c["boolean.implicants"], c["boolean.make_dnf.calls"]),
        "boolean.is_k_summable_ms": ms("op", "boolean.is_k_summable"),
        "boolean.witness_found_share": share(c["boolean.witness_found"], c["boolean.is_k_summable.calls"]),
        "boolean.lp_cache_hit_share": (
            1 - lp_calls / c["boolean.is_threshold.non_constant"]
            if c["boolean.is_threshold.non_constant"]
            else 0.0
        ),
        "boolean.self_ms": self_t["op"]["boolean"] / ops / 1e6,
        "graphs.find_induced_ms": ms("op", "graphs.find_induced", *patterns),
        "graphs.find_induced_calls": c["graphs.find_induced.calls"] / ops,
        "graphs.find_induced_hit_share": share(c["graphs.find_induced.hits"], c["graphs.find_induced.calls"]),
        "recognition.recognize_td_ms": ms("op", "recognition.recognize_td"),
        "recognition.recognize_htd_ms": ms("op", "recognition.recognize_htd"),
        "recognition.equivalence_ms": ms("op", "recognition.check_equivalence_chain"),
        "recognition.self_ms": self_t["op"]["recognition"] / ops / 1e6,
        "recognition.verify_td_structure_ms": ms("verify", "recognition.verify_td_structure"),
        "fileio.parse_ms": ms("op", "fileio.parse_graph", "fileio.parse_hypergraph"),
        "fileio.bytes": c["fileio.bytes"] / ops,
        "cli.self_ms": self_t["op"]["cli"] / ops / 1e6,
        "verify.verify_ms": ms("verify", "cli.main"),
        "trace.spans": n_spans / ops,
    }
    for i, name in enumerate(patterns, start=1):
        m[f"graphs.find_induced_ms.F{i}"] = ms("op", name)
    return m
