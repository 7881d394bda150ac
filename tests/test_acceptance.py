"""Acceptance suite: fourteen exactly reproducible criteria, each printed as
one pass/fail line. Sizes, seeds and tolerances are pinned here; every
criterion is oracle- or property-based with zero tolerated failures.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from domishold import (
    add_universal,
    all_graphs,
    catalog_witness,
    check_equivalence_chain,
    complete,
    disjoint_union,
    dnf_of_hypergraph,
    embed_into_td,
    find_induced,
    forbidden_catalog,
    forbidden_graph,
    greedy_min_tds,
    induced_subgraph,
    is_chordal,
    is_threshold,
    is_threshold_graph,
    make_dnf,
    neighborhood_dnf,
    path,
    random_graph,
    random_threshold,
    recognize_htd,
    recognize_td,
    split_incidence_graph,
    split_partition,
    verify_separating_structure,
    verify_summability_witness,
    verify_td_structure,
)
from domishold.corpus import (
    grow_td_graph,
    random_dually_sperner_hypergraph,
    random_hypergraph,
)
from domishold.solvers import approx_dominating_set

from conftest import htd_bruteforce
from oracles import gamma_bruteforce, gamma_t_bruteforce, is_12_polar, is_k_summable

SEED = 20130919


def report(num: int, description: str, failures: int, checked: int) -> None:
    status = "PASS" if failures == 0 else f"FAIL ({failures} failures)"
    print(f"\nACCEPTANCE {num:2d} {description}: {status} [{checked} checks]", flush=True)
    assert failures == 0, f"criterion {num}: {failures} failures out of {checked}"


@pytest.fixture(scope="session")
def td_corpus12():
    """200 seeded total domishold graphs on up to 12 vertices, without
    isolated vertices, carrying verifying structures from their growth."""
    rng = random.Random(SEED + 8)
    return [grow_td_graph(rng, max_n=12) for _ in range(200)]


@pytest.fixture(scope="session")
def dually_sperner_corpus():
    rng = random.Random(SEED + 6)
    return [
        random_dually_sperner_hypergraph(rng, rng.randint(2, 12), 10)
        for _ in range(1000)
    ]


def test_criterion_01_catalog_validity():
    failures = checked = 0
    for entry in forbidden_catalog():
        checked += 1
        G = entry.graph
        if recognize_td(G).verdict is not False:
            failures += 1
        if not verify_summability_witness(neighborhood_dnf(G), catalog_witness(entry)):
            failures += 1
        for size in range(G.n):
            for S in combinations(range(G.n), size):
                if not recognize_htd(induced_subgraph(G, S)).verdict:
                    failures += 1
    report(1, "catalog validity (not TD, 2-summable, minimal)", failures, checked)


def test_criterion_02_hereditary_equivalence_n6(td_table, census6):
    failures = 0
    memo: dict = {}
    for G in census6:
        fast = recognize_htd(G).verdict
        brute = htd_bruteforce(G, td_table, memo)
        if fast != brute:
            failures += 1
    report(2, "hereditary equivalence over all graphs n<=6", failures, len(census6))


def test_criterion_03_two_route_agreement():
    failures = checked = 0
    for n in range(6):
        for G in all_graphs(n):
            checked += 1
            chain = check_equivalence_chain(G)
            if None in chain.legs or not chain.unanimous():
                failures += 1
    rng = random.Random(SEED + 3)
    for _ in range(1000):
        checked += 1
        G = random_graph(rng, rng.randint(1, 8))
        chain = check_equivalence_chain(G)
        if None in chain.legs or not chain.unanimous():
            failures += 1
    report(3, "two-route agreement (census n<=5 + 1000 random n<=8)", failures, checked)


def test_criterion_04_certificate_soundness(td_table, census6, td_corpus12, dually_sperner_corpus):
    failures = checked = 0
    for G in census6:
        rep = td_table.report(G)
        if rep.verdict:
            checked += 1
            if not verify_td_structure(G, rep.structure):
                failures += 1
    for G, s in td_corpus12:
        checked += 1
        if not verify_td_structure(G, s):
            failures += 1
        rep = recognize_td(G)
        if rep.verdict is not True or not verify_td_structure(G, rep.structure):
            failures += 1
    for H in dually_sperner_corpus[:300]:
        f = dnf_of_hypergraph(H)
        rep = is_threshold(f)
        if rep.is_threshold:
            checked += 1
            if not verify_separating_structure(f, rep.structure):
                failures += 1
    report(4, "certificate soundness (structures verify)", failures, checked)


def test_criterion_05_metamorphic_laws():
    failures = checked = 0
    rng = random.Random(SEED + 5)
    k2 = complete(2)
    for _ in range(500):
        checked += 1
        G = random_graph(rng, rng.randint(1, 10))
        td = recognize_td(G).verdict
        if recognize_td(add_universal(G)).verdict != td:
            failures += 1
        if recognize_td(disjoint_union(G, k2)).verdict != td:
            failures += 1
        if G.has_isolated_vertex() and td is not True:
            failures += 1
        G2, s2, image = embed_into_td(G)
        if recognize_td(G2).verdict is not True:
            failures += 1
        if not verify_td_structure(G2, s2):
            failures += 1
    report(5, "closure laws (universal / +K2 / isolated / embedding)", failures, checked)


def test_criterion_06_dually_sperner_threshold(dually_sperner_corpus):
    failures = 0
    for H in dually_sperner_corpus:
        f = dnf_of_hypergraph(H)
        rep = is_threshold(f)
        if not rep.is_threshold or not verify_separating_structure(f, rep.structure):
            failures += 1
    report(6, "dually Sperner hypergraphs are threshold (1000 seeded)", failures, len(dually_sperner_corpus))


def test_criterion_07_hypergraph_graph_bridge():
    failures = 0
    rng = random.Random(SEED + 7)
    for _ in range(500):
        H = random_hypergraph(rng, rng.randint(1, 8), rng.randint(0, 6))
        via_function = is_threshold(dnf_of_hypergraph(H)).is_threshold
        via_graph = recognize_td(split_incidence_graph(H)[0]).verdict
        if via_function != via_graph:
            failures += 1
    report(7, "hypergraph thresholdness == split-incidence graph TD (500 seeded)", failures, 500)


def test_criterion_08_solver_exactness(td_table, census6, td_corpus12):
    failures = checked = 0
    for G in census6:
        if G.n == 0 or G.has_isolated_vertex():
            continue
        rep = td_table.report(G)
        if not rep.verdict:
            continue
        checked += 1
        if greedy_min_tds(G, rep.structure).size != gamma_t_bruteforce(G).size:
            failures += 1
    for G, s in td_corpus12:
        checked += 1
        if greedy_min_tds(G, s).size != gamma_t_bruteforce(G).size:
            failures += 1
    report(8, "greedy total domination is exact on TD corpus", failures, checked)


def test_criterion_09_approximation_bound(td_table, census6, td_corpus12):
    failures = checked = 0

    def check(G):
        nonlocal failures, checked
        isolated = G.isolated_vertices()
        rest = sorted(set(range(G.n)) - isolated)
        if rest:
            sub = induced_subgraph(G, rest)
            if not td_table.verdict(sub):
                return  # the reduction's precondition fails; reported, not solved
        checked += 1
        gamma = gamma_bruteforce(G).size
        if approx_dominating_set(G).size > 2 * gamma:
            failures += 1
        if not isolated and G.n:
            gamma_t = gamma_t_bruteforce(G).size
            if not (gamma <= gamma_t <= 2 * gamma):
                failures += 1

    for G in census6:
        if G.n and td_table.verdict(G):
            check(G)
    for G, _ in td_corpus12:
        check(G)
    report(9, "2-approximation bound and gamma <= gamma_t <= 2*gamma", failures, checked)


def test_criterion_10_structural_necessary_conditions(td_table, census6):
    failures = checked = 0
    for G in census6:
        if recognize_htd(G).verdict:
            checked += 1
            if not (is_chordal(G) and is_12_polar(G)):
                failures += 1
    for index in range(8, 14):
        checked += 1
        F = forbidden_graph(index)
        if not (is_chordal(F) and is_12_polar(F)):
            failures += 1
        if td_table.verdict(F) is not False:
            failures += 1
    report(10, "HTD => (1,2)-polar chordal; F8..F13 polar chordal non-TD", failures, checked)


def test_criterion_11_split_specialization(td_table, census6):
    failures = checked = 0
    memo: dict = {}
    f1_to_f12 = [entry.graph for entry in forbidden_catalog() if entry.index != 13]
    for G in census6:
        if split_partition(G) is None:
            continue
        checked += 1
        if any(find_induced(G, F) is not None for F in f1_to_f12):
            failures += 1
        if recognize_htd(G).verdict != htd_bruteforce(G, td_table, memo):
            failures += 1
    report(11, "split graphs: HTD == F13-free", failures, checked)


def test_criterion_12_threshold_graphs_are_htd():
    failures = 0
    rng = random.Random(SEED + 12)
    for _ in range(500):
        G = random_threshold(rng.randrange(1 << 30), rng.randint(1, 12))
        if not recognize_htd(G).verdict:
            failures += 1
        if recognize_td(G).verdict is not True:
            failures += 1
    report(12, "threshold graphs pass HTD and TD recognition (500 seeded)", failures, 500)


def test_criterion_13_asummability_cross_check():
    failures = checked = 0
    for n in range(5):
        subsets = [frozenset(s) for size in range(n + 1) for s in combinations(range(n), size)]
        for mask in range(1 << len(subsets)):
            family = [subsets[i] for i in range(len(subsets)) if mask >> i & 1]
            if any(
                a != b and a <= b for a in family for b in family
            ):
                continue
            f = make_dnf(n, family)
            checked += 1
            rep = is_threshold(f)
            summable = is_k_summable(f, 3) is not None
            if rep.is_threshold != (not summable):
                failures += 1
            if rep.is_threshold and not verify_separating_structure(f, rep.structure):
                failures += 1
    report(13, "thresholdness == asummability over all antichains n<=4", failures, checked)


def test_criterion_14_complements_of_domishold_graphs_are_td(td_table, census6):
    """G is domishold (Benzaken & Hammer 1978) when its closed-neighborhood
    function is threshold. TD contains the complements of domishold graphs,
    properly: P4 has no isolated vertex and is TD, but it is neither a
    threshold graph nor the complement of a domishold graph, and every such
    graph on at most four vertices is a P4."""
    closed = [make_dnf(G.n, [G.adj[v] | {v} for v in range(G.n)]) for G in census6]
    threshold = {f: is_threshold(f).is_threshold for f in set(closed)}
    domishold = [threshold[f] for f in closed]
    failures = checked = 0
    neither = []  # TD, no isolated vertex, not threshold, not co-domishold
    start = 1  # census6 lists each order in edge-mask order, after the empty graph
    for n in range(1, 7):
        last = (1 << n * (n - 1) // 2) - 1
        for mask in range(last + 1):
            # the complement has the complementary edge mask
            i, co = start + mask, start + last - mask
            G = census6[i]
            if domishold[i]:
                checked += 1
                if not td_table.verdict(census6[co]):
                    failures += 1
            if not (G.has_isolated_vertex() or domishold[co] or is_threshold_graph(G)):
                if td_table.verdict(G):
                    neither.append(G)
        start += last + 1
    p4 = path(4)
    checked += 1
    if p4.key() not in {G.key() for G in neither} or any(
        G.n < 4 or G.n == 4 and G.degree_sequence() != p4.degree_sequence() for G in neither
    ):
        failures += 1
    report(14, "complements of domishold graphs are TD; P4 is TD, not threshold or co-domishold", failures, checked)
