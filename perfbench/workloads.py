"""Seeded inputs for the three benchmark workloads.

Every input is built from the workload seed by this module's own stdlib
``random`` code and written in the repository's text formats, so a change to
the library's constructors never changes what the benchmark feeds it. Each
input carries the answer its construction guarantees (``None`` where the
construction gives none) and, where the construction also gives a
certificate, that certificate is checked once at set-up with the library's
own verifiers.

Inputs come in rounds. A run executes whole rounds, so every run sees the
same mix of input kinds however many rounds it completes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Optional

WORKLOADS = ("td-mix", "htd-scan", "census")

# td-mix: (k variables, band for the number m of minimal edges). Weights are
# 1..9 and t = floor(sum/2); m is drawn within the band by rejection so that
# rounds cost about the same. Larger instances (k = 10 at its median m = 88
# takes about 4 s per gadget copy, with a spread of 2x at equal m) leave too
# few operations in a run for steady figures; the reference instances cover
# them.
TD_MIX_HYPERGRAPHS = ((7, 12, 18), (8, 22, 30), (8, 22, 30))
# Six G(7, 1/2) per round put the median inside the cluster of cheap
# operations (yes-instances and G(7, 1/2)) instead of at the gap between it
# and the gadget copies, where it would be an extreme of either cluster.
TD_MIX_GNP_ORDERS = (7, 7, 7, 7, 7, 7, 8, 8)

# htd-scan: a threshold graph, a threshold graph + matching (order, matching
# edges) and a split graph with a planted F13, sized so that the three kinds
# cost about the same and the times form one cluster.
HTD_THRESHOLD_ORDERS = (16,)
HTD_MATCHING_ORDERS = ((20, 3),)
HTD_SPLIT_ORDERS = (14,)

# census: all labeled graphs of this order, in blocks of consecutive edge
# masks of all_graphs order; the seed orders the blocks.
CENSUS_ORDER = 7
CENSUS_BLOCK = 64


class SetupCheckError(RuntimeError):
    """A certificate given by an input's construction was rejected."""


@dataclass
class Op:
    """One operation: a CLI call on an input file, or (census) one
    equivalence-chain call on a graph built from an edge mask."""

    kind: str
    n: int  # vertices of the input graph, or variables of the hypergraph
    expected: Optional[bool]
    argv: Optional[list[str]] = None
    input_path: Optional[str] = None
    report_path: Optional[str] = None
    edges: Optional[list[tuple[int, int]]] = None


# ---------------------------------------------------------------------------
# File formats (written here, not by the library)


def graph_text(n: int, edges) -> str:
    edges = sorted((min(u, v), max(u, v)) for u, v in edges)
    lines = [f"p graph {n} {len(edges)}"] + [f"e {u + 1} {v + 1}" for u, v in edges]
    return "\n".join(lines) + "\n"


def hypergraph_text(n: int, edges) -> str:
    lines = [f"p hgraph {n} {len(edges)}"]
    lines += [" ".join(["h"] + [str(v + 1) for v in sorted(e)]) for e in edges]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Generators


def weighted_threshold_hypergraph(rng: random.Random, k: int, m_lo: int, m_hi: int):
    """Weights 1..9, t = floor(sum/2), edges = the minimal sets reaching t.

    Redraws the weights until the number of edges lies in [m_lo, m_hi].
    Returns (weights, t, edges) with edges as sorted tuples of variables.
    """
    while True:
        w = [rng.randint(1, 9) for _ in range(k)]
        t = sum(w) // 2
        total = [0] * (1 << k)
        lightest = [0] * (1 << k)
        edges = []
        for mask in range(1, 1 << k):
            low = mask & -mask
            rest = mask ^ low
            wl = w[low.bit_length() - 1]
            total[mask] = total[rest] + wl
            lightest[mask] = wl if not rest else min(wl, lightest[rest])
            if total[mask] >= t and total[mask] - lightest[mask] < t:
                edges.append(tuple(i for i in range(k) if mask >> i & 1))
        if m_lo <= len(edges) <= m_hi:
            return w, t, edges


def with_gadget(k: int, edges):
    """Add the edges {a,b} and {c,d} on four new variables a..d.

    Returns (edges, witness) where the witness is (false points, true points)
    as variable sets: {a,c} + {b,d} = {a,b} + {c,d}.
    """
    a, b, c, d = k, k + 1, k + 2, k + 3
    return list(edges) + [(a, b), (c, d)], (((a, c), (b, d)), ((a, b), (c, d)))


def split_incidence_edges(k: int, edges) -> tuple[int, list[tuple[int, int]]]:
    """Variables 0..k-1 form a clique; edge j becomes vertex k+j adjacent to
    its members."""
    g = [(u, v) for u, v in combinations(range(k), 2)]
    for j, e in enumerate(edges):
        g += [(v, k + j) for v in e]
    return k + len(edges), g


def random_graph_no_isolated(rng: random.Random, n: int, p: float = 0.5):
    """G(n, p), redrawn until no vertex is isolated."""
    while True:
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        if len({v for e in edges for v in e}) == n:
            return edges


def threshold_edges(rng: random.Random, n: int):
    """Random creation sequence starting with an isolated vertex; each later
    vertex is isolated or universal with probability 1/2."""
    edges = []
    for v in range(1, n):
        if rng.random() < 0.5:
            edges += [(u, v) for u in range(v)]
    return edges


def threshold_plus_matching(rng: random.Random, n: int, j: int):
    """A threshold graph on n-2j vertices plus j disjoint edges."""
    base = n - 2 * j
    return threshold_edges(rng, base) + [(base + 2 * i, base + 2 * i + 1) for i in range(j)]


def split_with_f13(rng: random.Random, n: int, p: float = 0.5):
    """Random split graph (clique of n//2 vertices, the rest independent,
    cross edges with probability p) with a planted induced F13.

    Returns (edges, image) where image maps the catalog labels
    (u, v, a, b, c, d) of F13 to vertices.
    """
    K = list(range(n // 2))
    I = list(range(n // 2, n))
    u, v = rng.sample(I, 2)
    a, b, c, d = rng.sample(K, 4)
    planted = {u: {a, b}, v: {c, d}}
    edges = list(combinations(K, 2))
    for y in I:
        for x in K:
            if y in planted:
                if x in planted[y] or x not in (a, b, c, d) and rng.random() < p:
                    edges.append((x, y))
            elif rng.random() < p:
                edges.append((x, y))
    return edges, (u, v, a, b, c, d)


def census_blocks(seed: int) -> list[int]:
    """Seeded order of the blocks of CENSUS_BLOCK consecutive edge masks."""
    pairs = CENSUS_ORDER * (CENSUS_ORDER - 1) // 2
    blocks = list(range((1 << pairs) // CENSUS_BLOCK))
    random.Random(f"census:{seed}").shuffle(blocks)
    return blocks


def census_edges(mask: int) -> list[tuple[int, int]]:
    """Edges of the graph with this edge mask, as in ``all_graphs``."""
    pairs = combinations(range(CENSUS_ORDER), 2)
    return [p for i, p in enumerate(pairs) if mask >> i & 1]


# ---------------------------------------------------------------------------
# Rounds


def _vec(n: int, members) -> tuple[int, ...]:
    return tuple(1 if i in members else 0 for i in range(n))


class Rounds:
    """The seeded, unbounded sequence of rounds of one workload.

    ``round(r)`` writes the inputs of round r under ``workdir``, checks the
    certificates their construction gives, and returns the operations.
    """

    def __init__(self, workload: str, seed: int, workdir: Path):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.blocks = census_blocks(seed) if workload == "census" else None

    def round(self, r: int) -> list[Op]:
        if self.workload == "census":
            base = self.blocks[r % len(self.blocks)] * CENSUS_BLOCK
            return [
                Op("census", CENSUS_ORDER, None, edges=census_edges(base + low))
                for low in range(CENSUS_BLOCK)
            ]
        rng = random.Random(f"{self.workload}:{self.seed}:{r}")
        ops: list[Op] = []
        if self.workload == "td-mix":
            self._td_mix(rng, r, ops)
        else:
            self._htd_scan(rng, r, ops)
        return ops

    def _cli(self, ops, r, kind, n, expected, text, command):
        """Write the input file and add the CLI call on it."""
        path = self.workdir / f"r{r:05d}-{len(ops):02d}.txt"
        path.write_text(text, encoding="utf-8")
        path, report = str(path), str(path.with_suffix(".json"))
        argv = [command[0], path, *command[1:], "--json", "--out", report]
        ops.append(Op(kind, n, expected, argv=argv, input_path=path, report_path=report))

    def _td_mix(self, rng, r, ops) -> None:
        from domishold.boolean import (
            SeparatingStructure,
            SummabilityWitness,
            dnf_of_hypergraph,
            verify_separating_structure,
            verify_summability_witness,
        )
        from domishold.fileio import parse_graph, parse_hypergraph
        from domishold.recognition import neighborhood_dnf

        hyper = ["hypergraph", "--threshold"]
        td = ["recognize-td"]
        for k, m_lo, m_hi in TD_MIX_HYPERGRAPHS:
            w, t, edges = weighted_threshold_hypergraph(rng, k, m_lo, m_hi)
            text = hypergraph_text(k, edges)
            f = dnf_of_hypergraph(parse_hypergraph(text))
            if not verify_separating_structure(f, SeparatingStructure(tuple(w), t - 1)):
                raise SetupCheckError(f"round {r}: weights do not separate the k={k} hypergraph")
            self._cli(ops, r, "threshold-hypergraph", k, True, text, hyper)
            n, g = split_incidence_edges(k, edges)
            self._cli(ops, r, "td-split-incidence", n, True, graph_text(n, g), td)

            gedges, (falses, trues) = with_gadget(k, edges)
            text = hypergraph_text(k + 4, gedges)
            wit = SummabilityWitness(
                tuple(_vec(k + 4, p) for p in falses), tuple(_vec(k + 4, p) for p in trues)
            )
            if not verify_summability_witness(dnf_of_hypergraph(parse_hypergraph(text)), wit):
                raise SetupCheckError(f"round {r}: gadget witness rejected (k={k})")
            self._cli(ops, r, "gadget-hypergraph", k + 4, False, text, hyper)
            n, g = split_incidence_edges(k + 4, gedges)
            text = graph_text(n, g)
            wit = SummabilityWitness(
                tuple(_vec(n, p) for p in falses), tuple(_vec(n, p) for p in trues)
            )
            if not verify_summability_witness(neighborhood_dnf(parse_graph(text)), wit):
                raise SetupCheckError(f"round {r}: split-incidence gadget witness rejected")
            self._cli(ops, r, "gadget-split-incidence", n, False, text, td)
        for n in TD_MIX_GNP_ORDERS:
            text = graph_text(n, random_graph_no_isolated(rng, n))
            self._cli(ops, r, "gnp", n, None, text, td)

    def _htd_scan(self, rng, r, ops) -> None:
        from domishold.catalog import forbidden_graph
        from domishold.fileio import parse_graph
        from domishold.graphs import is_chordal, is_induced_embedding, is_threshold_graph, split_partition

        htd = ["recognize-htd"]
        for n in HTD_THRESHOLD_ORDERS:
            text = graph_text(n, threshold_edges(rng, n))
            if not is_threshold_graph(parse_graph(text)):
                raise SetupCheckError(f"round {r}: creation sequence is not threshold")
            self._cli(ops, r, "threshold", n, True, text, htd)
        for n, j in HTD_MATCHING_ORDERS:
            text = graph_text(n, threshold_plus_matching(rng, n, j))
            G = parse_graph(text)
            if not is_chordal(G) or split_partition(G) is not None:
                raise SetupCheckError(f"round {r}: threshold + matching is not chordal non-split")
            self._cli(ops, r, "threshold-matching", n, True, text, htd)
        for n in HTD_SPLIT_ORDERS:
            edges, image = split_with_f13(rng, n)
            text = graph_text(n, edges)
            G = parse_graph(text)
            if split_partition(G) is None or not is_induced_embedding(G, forbidden_graph(13), image):
                raise SetupCheckError(f"round {r}: planted F13 rejected")
            self._cli(ops, r, "split-f13", n, False, text, htd)
