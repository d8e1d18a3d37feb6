"""The solvability and nilpotency predicates against full series and
brute force.

`is_solvable` stops its derived series at a term whose order has at most
two prime divisors (Burnside's p^a q^b theorem) and `is_nilpotent` passes a
group of prime-power order without a series, so neither reads every term.
The property test checks both, the series and the radical oracles on
hypothesis-drawn groups against `tests/bruteforce.py`, which never touches
the stabilizer-chain engine.  The scan test checks every subgroup an
exhaustive criterion scan asks about against the full series, on groups
whose orders have three prime divisors, where the predicates still compute.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from solvrad import criteria
from solvrad.bsgs import GeneratorSet, build_bsgs, conjugacy_classes, enumerate_elements
from solvrad.criteria import (
    baer_suzuki_set,
    four_conjugate_radical,
    two_conjugate_radical,
)
from solvrad.perm import Permutation
from solvrad.structure import (
    derived_series,
    fitting_oracle,
    is_nilpotent,
    is_solvable,
    lower_central_series,
    solvable_radical_oracle,
)

# all-pairs commutators (bf.is_solvable_set) stay cheap up to this order
ALL_PAIRS_MAX_ORDER = 120


def elements_of(g):
    return {p.images for p in enumerate_elements(g)}


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.lists(
            st.permutations(list(range(1, n + 1))).map(Permutation),
            min_size=1,
            max_size=3,
        )
    )
)
def test_predicates_series_and_radicals_match_brute_force(gens):
    degree = gens[0].degree
    raw = [p.images for p in gens]
    group = build_bsgs(GeneratorSet(degree, gens))
    els = bf.closure(raw, degree)
    assert group.order == len(els)
    assert elements_of(group) == els

    derived = derived_series(group)
    lower = lower_central_series(group)
    derived_orders = bf.derived_orders(raw, degree)
    lower_orders = bf.lower_central_orders(raw, degree)
    assert [t.order for t in derived.terms] == derived_orders
    assert [t.order for t in lower.terms] == lower_orders

    solvable = derived_orders[-1] == 1
    nilpotent = lower_orders[-1] == 1
    assert is_solvable(group) == solvable == derived.terminated
    assert is_nilpotent(group) == nilpotent == lower.terminated
    if group.order <= ALL_PAIRS_MAX_ORDER:
        assert solvable == bf.is_solvable_set(els, degree)
        assert nilpotent == bf.is_nilpotent_set(els, degree)

    classes = conjugacy_classes(group)
    radical = solvable_radical_oracle(group, classes).subgroup
    fitting = fitting_oracle(group, classes).subgroup
    assert elements_of(radical) == bf.radical_set(raw, degree, bf.solvable_by_orders)
    assert elements_of(fitting) == bf.radical_set(raw, degree, bf.nilpotent_by_orders)


# Each group's order has three prime divisors (60, 120, 168, 300), and so
# do some of the subgroups its scans ask about, where the predicates still
# compute: the answers they get there.  C(5) x A(5) also has passing
# subgroups of order 30, where `is_solvable` walks the derived series down
# to a term the order settles.
SCAN_SPECS = [
    ("A(5)", {False}),
    ("S(5)", {False}),
    ("PSL2(7)", {False}),
    ("direct(C(5),A(5))", {False, True}),
]


@pytest.mark.parametrize("spec, computed_answers", SCAN_SPECS)
def test_scan_subgroups_get_the_full_series_answer(spec, computed_answers,
                                                   group_of, classes_of,
                                                   monkeypatch):
    asked = []

    def checked(predicate, series):
        def wrapper(h):
            answer = predicate(h)
            assert answer == series(h).terminated
            asked.append((h.order, answer))
            return answer

        return wrapper

    monkeypatch.setattr(criteria, "is_solvable", checked(is_solvable, derived_series))
    monkeypatch.setattr(
        criteria, "is_nilpotent", checked(is_nilpotent, lower_central_series)
    )
    group, classes = group_of(spec), classes_of(spec)
    baer_suzuki_set(group, classes, budget=10**9)
    two_conjugate_radical(group, classes, budget=10**9)
    four_conjugate_radical(group, classes, tuple_budget=10**12)
    computed = {a for n, a in asked if len(bf.prime_divisors(n)) > 2}
    assert computed == computed_answers
