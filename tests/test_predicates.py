"""The solvability and nilpotency predicates against brute force.

`is_solvable` stops its derived series at a term whose order has at most
two prime divisors (Burnside's p^a q^b theorem), and `is_nilpotent` passes a
group of prime-power order and otherwise reads the p-parts of its
generators, so neither computes a full series.  The property test checks
both and the radical oracles on hypothesis-drawn groups against the full
derived and lower central series of `tests/bruteforce.py`, which never
touches the stabilizer-chain engine.  The scan test checks every subgroup
an exhaustive criterion scan asks about against those series, on groups
whose orders have three prime divisors, where the predicates still compute.

Each group keeps its predicate verdicts, and a build of a group's order
asks the group itself.  The context test checks that one `GroupContext`
then computes each predicate at most once on a group of its order, across
its oracles and the scans of `bs`, `four` and `two`, and that `pairs` and
`thompson`, run after `two` as in the default battery, read the solvable
residual the group keeps, so [G, G] is derived at most once.  The property
tests check the residual against the brute-force derived series, and a
kept verdict against a fresh one on an equal rebuilt group.
"""

import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from solvrad import criteria, structure
from solvrad.bsgs import (
    Bsgs,
    DEFAULT_ELEMENT_CAP,
    GeneratorSet,
    build_bsgs,
    conjugacy_classes,
    enumerate_elements,
)
from solvrad.cli import EXIT_OK, GroupContext, cmd_verify
from solvrad.criteria import (
    baer_suzuki_set,
    four_conjugate_radical,
    two_conjugate_radical,
)
from solvrad.perm import Permutation
from solvrad.zoo import construct
from test_scan_pruning import RANDOM_GENS
from solvrad.structure import (
    _whole_or,
    fitting_oracle,
    is_nilpotent,
    is_solvable,
    solvable_radical_oracle,
    solvable_residual_order,
)

# all-pairs commutators (bf.is_solvable_set) stay cheap up to this order
ALL_PAIRS_MAX_ORDER = 120


def elements_of(g):
    return {p.images for p in enumerate_elements(g)}


# one to three generators of one degree from 1 to 7
generator_lists = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.lists(
        st.permutations(list(range(1, n + 1))).map(Permutation),
        min_size=1,
        max_size=3,
    )
)


@settings(max_examples=30, deadline=None)
@given(generator_lists)
def test_predicates_series_and_radicals_match_brute_force(gens):
    degree = gens[0].degree
    raw = [p.images for p in gens]
    group = build_bsgs(GeneratorSet(degree, gens))
    els = bf.closure(raw, degree)
    assert group.order == len(els)
    assert elements_of(group) == els

    derived_orders = bf.derived_orders(raw, degree)
    solvable = derived_orders[-1] == 1
    nilpotent = bf.lower_central_orders(raw, degree)[-1] == 1
    assert is_solvable(group) == solvable
    assert solvable_residual_order(group) == derived_orders[-1]
    assert is_nilpotent(group) == nilpotent
    if group.order <= ALL_PAIRS_MAX_ORDER:
        assert solvable == bf.is_solvable_set(els, degree)
        assert nilpotent == bf.is_nilpotent_set(els, degree)

    classes = conjugacy_classes(group)
    radical = solvable_radical_oracle(group, classes).subgroup
    fitting = fitting_oracle(group, classes).subgroup
    assert elements_of(radical) == bf.radical_set(raw, degree, bf.solvable_by_orders)
    assert elements_of(fitting) == bf.radical_set(raw, degree, bf.nilpotent_by_orders)


def assert_oracles_match_reference(group, raw):
    """Both oracles, the Fitting one first, on one class list, against
    bruteforce's one normal closure per class: the same member class
    representatives and the same radical order."""
    classes = conjugacy_classes(group)
    want = bf.radical_reps(
        raw, group.degree, [bf.nilpotent_by_orders, bf.solvable_by_orders]
    )
    for oracle, (reps, order) in zip((fitting_oracle, solvable_radical_oracle), want):
        got = oracle(group, classes)
        assert [p.images for p in got.member_class_reps] == reps
        assert got.subgroup.order == order


# the default battery's groups, and direct products with many central
# classes, which the oracles settle from powers
BATTERY = Path(structure.__file__).parent / "data" / "default_battery.json"
ORACLE_SPECS = sorted(
    {e["spec"] for e in json.loads(BATTERY.read_text())["entries"] if "spec" in e}
) + ["direct(C(12),A(5))", "direct(C(31),A(5))"]


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_oracles_match_one_closure_per_class(spec):
    gens = construct(spec)
    group = Bsgs(gens)  # fresh: no verdict or closure kept from another test
    assert_oracles_match_reference(group, [p.images for p in gens.generators])


@settings(max_examples=40, deadline=None)
@given(RANDOM_GENS)
def test_oracles_match_one_closure_per_class_on_random_groups(gens):
    group = build_bsgs(GeneratorSet(gens[0].degree, gens))
    assert_oracles_match_reference(group, [p.images for p in gens])


# Each group's order has three prime divisors (60, 120, 168, 300), and so
# do some of the subgroups its scans ask about, where the predicates still
# compute: the answers they get there.  C(5) x A(5) also has passing
# subgroups of order 30, where `is_solvable` walks the derived series down
# to a term the order settles.  The brute-force series give the reference
# answers; every subgroup asked about has order at most 300.
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

    def checked(predicate, reference):
        def wrapper(h):
            answer = predicate(h)
            assert answer == reference([p.images for p in h.generators], h.degree)
            asked.append((h.order, answer))
            return answer

        return wrapper

    monkeypatch.setattr(
        criteria, "is_solvable", checked(is_solvable, bf.solvable_by_orders)
    )
    monkeypatch.setattr(
        criteria, "is_nilpotent", checked(is_nilpotent, bf.nilpotent_by_orders)
    )
    group, classes = group_of(spec), classes_of(spec)
    baer_suzuki_set(group, classes, budget=10**9)
    two_conjugate_radical(group, classes, budget=10**9)
    four_conjugate_radical(group, classes, tuple_budget=10**12)
    computed = {a for n, a in asked if len(bf.prime_divisors(n)) > 2}
    assert computed == computed_answers


@settings(max_examples=30, deadline=None)
@given(generator_lists)
def test_a_kept_verdict_equals_a_fresh_one_on_a_rebuilt_group(gens):
    degree = gens[0].degree
    group = build_bsgs(GeneratorSet(degree, gens))
    first = (is_solvable(group), is_nilpotent(group))
    assert (group._residual == 1, group._nilpotent) == first
    # asked again, the group answers from its verdicts
    assert (is_solvable(group), is_nilpotent(group)) == first
    # the same group, built from the generators in another order, has no
    # verdicts yet and computes them afresh
    rebuilt = build_bsgs(GeneratorSet(degree, gens[::-1]))
    assert rebuilt.order == group.order
    assert rebuilt._residual is rebuilt._nilpotent is None
    assert (is_solvable(rebuilt), is_nilpotent(rebuilt)) == first
    raw = [p.images for p in gens]
    assert first == (
        bf.solvable_by_orders(raw, degree), bf.nilpotent_by_orders(raw, degree)
    )
    # a bounded build of the group's order hands the question to the group
    whole = Bsgs(GeneratorSet(degree, gens[::-1]), group.order)
    assert _whole_or(group, whole) is group


# each nonsolvable: every class has some <g, xgx^-1, ...> that is the whole
# group, and the solvable-radical oracle's normal closures are whole too
CONTEXT_SPECS = ["A(5)", "PSL2(7)", "direct(C(5),A(5))", "S(5)"]


def _record_calls(monkeypatch, asked, name):
    """Count in `asked`, by (name, order of its argument), each call of the
    structure function `name`."""
    real = getattr(structure, name)

    def wrapper(h):
        asked[name, h.order] += 1
        return real(h)

    monkeypatch.setattr(structure, name, wrapper)


@pytest.mark.parametrize("spec", CONTEXT_SPECS)
def test_a_context_runs_each_series_once_on_its_whole_group(spec, monkeypatch):
    ctx = GroupContext(spec, DEFAULT_ELEMENT_CAP)
    asked = Counter()  # (function, order of the group it was asked about)
    _record_calls(monkeypatch, asked, "derived_subgroup")
    _record_calls(monkeypatch, asked, "_nilpotent_by_parts")
    for theorem in ("bs", "four", "two"):
        code, _ = cmd_verify(theorem, ctx, criteria.EXHAUSTIVE, None, 0)
        assert code == EXIT_OK
    assert ctx.solvable_radical.subgroup.order < ctx.group.order
    assert ctx.fitting_radical.subgroup.order < ctx.group.order
    order = ctx.group.order
    assert asked["derived_subgroup", order] == 1
    assert asked["_nilpotent_by_parts", order] == 1


@pytest.mark.parametrize("spec", ["A(5)", "PSL2(7)", "file:sz8.json", "S(4)"])
def test_whole_group_theorems_derive_the_group_once(spec, monkeypatch):
    # in the default battery's order, `two` asks the group's solvability
    # first, and `pairs` and `thompson` read the residual it keeps; S(4)'s
    # order settles its solvability, so nothing is derived
    ctx = GroupContext(spec, DEFAULT_ELEMENT_CAP)
    asked = Counter()
    _record_calls(monkeypatch, asked, "derived_subgroup")
    solvable = spec == "S(4)"
    for theorem in ("two", "pairs", "thompson"):
        code, report = cmd_verify(theorem, ctx, criteria.EXHAUSTIVE, None, 0)
        assert code == EXIT_OK
        if theorem != "two":
            assert report.details["criterion_holds"] is solvable
            assert report.details["group_is_solvable"] is solvable
    assert ctx.group._residual == (1 if solvable else ctx.group.order)
    if solvable:
        assert sum(asked.values()) == 0
    else:
        assert asked["derived_subgroup", ctx.group.order] == 1
