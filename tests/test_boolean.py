import random
from itertools import product

import pytest

from domishold import (
    PositiveDNF,
    SeparatingStructure,
    evaluate,
    is_threshold,
    make_dnf,
    verify_separating_structure,
    verify_summability_witness,
)

from oracles import CapabilityError, dual, is_k_summable, maximal_false_points, minimal_sets


def impl(f):
    return sorted(tuple(sorted(t)) for t in f.implicants)


def random_antichain(rng, n, tries=6):
    terms = [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, tries))]
    return make_dnf(n, terms)


def test_make_dnf_examples():
    assert impl(make_dnf(3, [[0, 1], [0, 1, 2]])) == [(0, 1)]
    assert make_dnf(2, []).is_constant_zero()
    one = make_dnf(2, [[], [0]])
    assert one.is_constant_one() and impl(one) == [()]
    with pytest.raises(ValueError):
        make_dnf(2, [[3]])
    with pytest.raises(ValueError):
        PositiveDNF(3, (frozenset({0}), frozenset({0, 1})))  # not an antichain
    # a term may name a variable more than once
    assert make_dnf(3, [[0, 0]]) == make_dnf(3, [[0]])
    assert impl(make_dnf(2, [[1, 1, 1], [0, 1, 0]])) == [(1,)]
    assert PositiveDNF(3, [[2, 0, 2], [1]]) == make_dnf(3, [[0, 2], [1]])


def test_make_dnf_equals_validated_construction():
    rng = random.Random(44)
    for _ in range(200):
        n = rng.randint(1, 7)
        terms = [rng.choices(range(n), k=rng.randint(0, n + 2)) for _ in range(rng.randint(0, 10))]
        f = make_dnf(n, terms)
        assert f.implicants == minimal_sets(frozenset(t) for t in terms), terms
        assert f == PositiveDNF(n, f.implicants) and hash(f) == hash(PositiveDNF(n, f.implicants))
        if all(terms):  # an empty term absorbs every other one
            with pytest.raises(ValueError):
                make_dnf(n, terms + [[n]])


def test_evaluate_examples():
    f = make_dnf(3, [[0, 1]])
    assert evaluate(f, (1, 1, 0)) == 1
    assert evaluate(f, (1, 0, 1)) == 0
    assert evaluate(make_dnf(3, [[]]), (0, 0, 0)) == 1
    with pytest.raises(ValueError):
        evaluate(f, (1, 1))


def test_evaluate_is_monotone():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(1, 6)
        f = random_antichain(rng, n)
        for x in product((0, 1), repeat=n):
            for i in range(n):
                if x[i] == 0:
                    y = x[:i] + (1,) + x[i + 1 :]
                    assert evaluate(f, x) <= evaluate(f, y)


def test_dual_examples():
    assert impl(dual(make_dnf(2, [[0], [1]]))) == [(0, 1)]
    assert impl(dual(make_dnf(2, [[0, 1]]))) == [(0,), (1,)]
    assert impl(dual(make_dnf(3, [[0, 1], [0, 2]]))) == [(0,), (1, 2)]


def test_dual_matches_pointwise_definition_and_is_involutive():
    rng = random.Random(22)
    for _ in range(50):
        n = rng.randint(1, 6)
        f = random_antichain(rng, n)
        fd = dual(f)
        for x in product((0, 1), repeat=n):
            flipped = tuple(1 - b for b in x)
            assert evaluate(fd, x) == 1 - evaluate(f, flipped)
        assert dual(fd) == f


def test_dual_of_constants():
    assert dual(make_dnf(2, [])).is_constant_one()
    assert dual(make_dnf(2, [[]])).is_constant_zero()


def test_maximal_false_points_examples():
    assert sorted(map(tuple, map(sorted, maximal_false_points(make_dnf(3, [[0, 1], [0, 2]]))))) == [
        (0,),
        (1, 2),
    ]
    assert list(maximal_false_points(make_dnf(2, [[0]]))) == [frozenset({1})]
    assert list(maximal_false_points(make_dnf(2, []))) == [frozenset({0, 1})]
    assert maximal_false_points(make_dnf(2, [[]])) == ()


def test_maximal_false_points_are_maximal():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 6)
        f = random_antichain(rng, n)
        for fp in maximal_false_points(f):
            assert not any(t <= fp for t in f.implicants)
            for v in set(range(n)) - fp:
                assert any(t <= fp | {v} for t in f.implicants)


def test_is_threshold_yes_examples():
    f = make_dnf(3, [[0, 1], [0, 2]])
    report = is_threshold(f)
    assert report.is_threshold and verify_separating_structure(f, report.structure)
    # the hand-computed structure is also accepted by the verifier
    assert verify_separating_structure(f, SeparatingStructure((2, 1, 1), 2))
    single = make_dnf(1, [[0]])
    rep = is_threshold(single)
    assert rep.is_threshold and verify_separating_structure(single, rep.structure)
    assert verify_separating_structure(single, SeparatingStructure((1,), 0))


def test_is_threshold_no_example_c4_neighborhoods():
    f = make_dnf(4, [[1, 3], [0, 2]])
    report = is_threshold(f)
    assert not report.is_threshold and report.reason == "non-regular"
    assert report.witness is not None
    assert verify_summability_witness(f, report.witness)


def test_is_threshold_constants():
    zero = make_dnf(3, [])
    rep = is_threshold(zero)
    assert rep.is_threshold and verify_separating_structure(zero, rep.structure)
    one = make_dnf(3, [[]])
    rep1 = is_threshold(one)
    assert rep1.is_threshold and rep1.reason == "separating-structure"
    assert rep1.structure.t == -1 and verify_separating_structure(one, rep1.structure)
    assert is_threshold(zero).is_threshold


def test_is_k_summable_examples():
    c4 = make_dnf(4, [[1, 3], [0, 2]])
    w = is_k_summable(c4, 2)
    assert w is not None and verify_summability_witness(c4, w)
    assert is_k_summable(make_dnf(1, [[0]]), 2) is None
    assert is_k_summable(make_dnf(3, [[0, 1], [0, 2]]), 3) is None
    with pytest.raises(ValueError):
        is_k_summable(c4, 1)
    with pytest.raises(CapabilityError):
        is_k_summable(c4, 3, work_cap=1)


def test_structures_verify_on_random_threshold_functions():
    rng = random.Random(24)
    for _ in range(60):
        n = rng.randint(1, 6)
        f = random_antichain(rng, n)
        report = is_threshold(f)
        if report.is_threshold:
            assert verify_separating_structure(f, report.structure)
        else:
            w = is_k_summable(f, 2)
            assert w is not None and verify_summability_witness(f, w)


def test_threshold_iff_dual_threshold():
    rng = random.Random(25)
    for _ in range(50):
        n = rng.randint(1, 6)
        f = random_antichain(rng, n)
        assert is_threshold(f).is_threshold == is_threshold(dual(f)).is_threshold


def test_structure_transfer_to_dual():
    rng = random.Random(26)
    for _ in range(40):
        n = rng.randint(1, 6)
        f = random_antichain(rng, n)
        report = is_threshold(f)
        if not report.is_threshold:
            continue
        s = report.structure
        transferred = SeparatingStructure(s.weights, sum(s.weights) - s.t - 1)
        if transferred.t >= 0:
            assert verify_separating_structure(dual(f), transferred)


def test_verify_separating_structure_rejects_bad_inputs():
    f = make_dnf(2, [[0, 1]])
    assert not verify_separating_structure(f, SeparatingStructure((1,), 0))
    assert not verify_separating_structure(f, SeparatingStructure((1, 1), 2))
    assert verify_separating_structure(f, SeparatingStructure((1, 1), 1))
    # beyond the 2^16 points an exhaustive check could afford
    x0 = make_dnf(20, [[0]])
    assert verify_separating_structure(x0, SeparatingStructure((1,) + (0,) * 19, 0))
    assert not verify_separating_structure(x0, SeparatingStructure((1,) * 20, 0))
