"""The polynomial structure verifiers against the exhaustive 2^n sweeps of
``oracles.py``, on both the separating and the total domishold form."""

import random

from oracles import sweep_separating_structure, sweep_td_structure

from domishold import (
    SeparatingStructure,
    TdStructure,
    all_graphs,
    neighborhood_dnf,
    recognize_td,
    verify_separating_structure,
    verify_td_structure,
)


def candidate_structures(rng, G):
    """The recognizer's structure with each weight and t moved by one, and
    three random structures."""
    n = G.n
    structures = []
    report = recognize_td(G)
    if report.verdict:
        w, t = report.structure.weights, report.structure.t
        structures.append(report.structure)
        for v in range(n):
            for d in (-1, 1):
                structures.append(TdStructure(w[:v] + (w[v] + d,) + w[v + 1 :], t))
        structures += [TdStructure(w, t - 1), TdStructure(w, t + 1)]
    for _ in range(3):
        w = tuple(rng.randint(0, 3) for _ in range(n))
        structures.append(TdStructure(w, rng.randint(0, sum(w) + 2)))
    return structures


def test_verifiers_agree_with_the_sweeps_up_to_order_5():
    rng = random.Random(9)
    verdicts = {"td": set(), "separating": set()}
    pairs = 0
    for n in range(6):
        for G in all_graphs(n):
            f = neighborhood_dnf(G)
            for s in candidate_structures(rng, G):
                ok = verify_td_structure(G, s)
                assert ok == sweep_td_structure(G, s), (G.edges(), s)
                sep = SeparatingStructure(s.weights, sum(s.weights) - s.t)
                sep_ok = verify_separating_structure(f, sep)
                assert sep_ok == sweep_separating_structure(f, sep), (f.implicants, sep)
                verdicts["td"].add(ok)
                verdicts["separating"].add(sep_ok)
                pairs += 1
    assert pairs > 13_000
    assert verdicts == {"td": {True, False}, "separating": {True, False}}
