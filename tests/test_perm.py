import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvrad.perm import (
    CycleFormatError,
    DegreeMismatchError,
    Permutation,
    commutator,
    compose,
    conjugate,
    inverse,
    is_prime,
    order,
    parse_cycles,
    print_cycles,
    _identity,
    _inv,
    _mul,
    _mul_rows,
    _power,
    _raw,
    _reader,
    _row,
)


def P(text, degree):
    return parse_cycles(text, degree)


# the small degrees, and Sz(8)'s 65 and 100, the north star's largest
DEGREES = st.one_of(st.integers(min_value=1, max_value=9), st.sampled_from([65, 100]))


def perms_of(n):
    return st.permutations(list(range(1, n + 1))).map(Permutation)


perms = DEGREES.flatmap(perms_of)


def same_degree_pairs(k):
    return DEGREES.flatmap(lambda n: st.tuples(*[perms_of(n)] * k))


class TestCompose:
    def test_two_transposition_product(self):
        assert compose(P("(1,2)", 3), P("(2,3)", 3)) == P("(1,2,3)", 3)

    def test_apply_right_first_convention(self):
        # (p o q)(i) = p(q(i)): q moves 1 to 1, then p moves 1 to 2
        p, q = P("(1,2)", 3), P("(2,3)", 3)
        assert compose(p, q)(1) == p(q(1)) == 2

    @given(perms)
    def test_identity_is_neutral(self, p):
        e = Permutation.identity(p.degree)
        assert compose(p, e) == p
        assert compose(e, p) == p

    @given(perms)
    def test_inverse_law(self, p):
        assert compose(p, inverse(p)) == Permutation.identity(p.degree)
        assert compose(inverse(p), p) == Permutation.identity(p.degree)

    @given(same_degree_pairs(3))
    def test_associativity(self, pqr):
        p, q, r = pqr
        assert compose(compose(p, q), r) == compose(p, compose(q, r))

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            compose(P("(1,2)", 3), P("(1,2)", 4))

    # either side of the byte raws: a byte holds the points 0..255
    @pytest.mark.parametrize("n", [1, 2, 3, 65, 100, 255, 256, 257, 300])
    @settings(max_examples=30)
    @given(data=st.data())
    def test_raw_primitives_match_their_definitions(self, n, data):
        raw_type = bytes if n <= 256 else tuple
        perm = data.draw(perms_of(n))
        p, q = perm._img, data.draw(perms_of(n))._img
        assert type(p) is raw_type and list(p) == [v - 1 for v in perm.images]
        assert parse_cycles(print_cycles(perm), n)._img == p == _raw(list(p))
        assert type(_identity(n)) is raw_type and list(_identity(n)) == list(range(n))
        assert Permutation.identity(n)._img == _identity(n)
        pq = _mul(p, q)
        assert type(pq) is raw_type and tuple(pq) == tuple(p[i] for i in q)
        r = [None] * n
        for i in range(n):
            r[p[i]] = i
        assert type(_inv(p)) is raw_type and tuple(_inv(p)) == tuple(r)
        e = data.draw(st.integers(min_value=0, max_value=7))
        power = tuple(range(n))
        for _ in range(e):
            power = tuple(power[i] for i in p)
        assert type(_power(p, e)) is raw_type and tuple(_power(p, e)) == power

    @pytest.mark.parametrize("n", [3, 256, 300])
    @settings(max_examples=20)
    @given(data=st.data())
    def test_order_is_lexicographic_on_image_arrays(self, n, data):
        ps = [data.draw(perms_of(m)) for m in (n, n, 257, 2)]
        assert sorted(ps) == sorted(ps, key=lambda p: p.images)

    # rows either side of the byte codec, and rows of one point
    @pytest.mark.parametrize("n", [2, 65, 256, 300])
    @pytest.mark.parametrize("width", [1, 3])
    @settings(max_examples=15)
    @given(data=st.data())
    def test_row_primitives_match_raw_products(self, n, width, data):
        raw_type = bytes if n <= 256 else tuple
        a, b = (data.draw(perms_of(n))._img for _ in range(2))
        ps, qs = [a, b, _mul(a, b)], [_inv(a), b]
        point = st.integers(min_value=0, max_value=n - 1)
        points = data.draw(st.lists(point, min_size=width, max_size=width))
        assert type(_row(points, n)) is raw_type and list(_row(points, n)) == points
        # _mul(p, q) by its definition, which also holds for rows of one point
        rows = [_row([q[i] for i in points], n) for q in qs]
        products = [_row([p[i] for i in q], n) for p in ps for q in rows]
        assert list(_mul_rows(ps, rows)) == products
        assert list(_mul_rows(ps, qs)) == [_mul(p, q) for p in ps for q in qs]
        after = ps[0]
        for e in qs:
            assert _reader(points, n)(e) == _row([e[i] for i in points], n)
            got = _reader(points, n, after)(e)
            assert type(got) is raw_type and list(got) == [after[e[i]] for i in points]

    def test_degree_one_product_is_the_degree_raw(self):
        # the only permutation of degree 1 is the identity, a one-byte raw
        assert _mul(b"\0", b"\0") == b"\0" == _inv(b"\0") == _identity(1)
        assert type(_mul(b"\0", b"\0")) is bytes


class TestOrderInverse:
    def test_order_five_cycle(self):
        assert order(P("(1,2,3,4,5)", 5)) == 5

    def test_order_lcm(self):
        assert order(P("(1,2)(3,4,5)", 5)) == 6

    def test_inverse_three_cycle(self):
        assert inverse(P("(1,2,3)", 3)) == P("(1,3,2)", 3)

    @given(perms)
    def test_order_is_exponent(self, p):
        assert (p ** p.order()).is_identity()


class TestConjugate:
    def test_relabels_moved_points(self):
        assert conjugate(P("(1,2)", 3), P("(1,3)", 3)) == P("(2,3)", 3)

    @given(perms)
    def test_identity_conjugator(self, g):
        assert conjugate(g, Permutation.identity(g.degree)) == g

    @given(perms)
    def test_self_conjugation(self, g):
        assert conjugate(g, g) == g

    @given(same_degree_pairs(2))
    def test_cycle_type_preserved(self, ga):
        g, a = ga
        assert conjugate(g, a).cycle_type() == g.cycle_type()

    @given(same_degree_pairs(2))
    def test_order_preserved(self, ga):
        g, a = ga
        assert order(conjugate(g, a)) == order(g)

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            conjugate(P("(1,2)", 2), P("(1,2)", 3))


class TestCommutator:
    @given(perms)
    def test_self_commutator_is_identity(self, x):
        assert commutator(x, x).is_identity()

    def test_pinned_value(self):
        # independent oracle: evaluate x y x^-1 y^-1 point by point
        x, y = P("(1,2)", 3), P("(2,3)", 3)
        expected = Permutation(
            [x(y(inverse(x)(inverse(y)(i)))) for i in (1, 2, 3)]
        )
        got = commutator(x, y)
        assert got == expected
        assert got == P("(1,3,2)", 3)

    def test_disjoint_supports_commute(self):
        x, y = P("(1,2)", 5), P("(3,4,5)", 5)
        assert commutator(x, y).is_identity()

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            commutator(P("(1,2)", 2), P("(1,2)", 3))


class TestCycleText:
    def test_parse_with_fixed_points(self):
        p = P("(1,2,3)", 5)
        assert p(4) == 4 and p(5) == 5
        assert p(1) == 2

    def test_empty_is_identity(self):
        assert P("", 4) == Permutation.identity(4)
        assert P("   ", 4) == Permutation.identity(4)

    def test_repeated_point_rejected(self):
        with pytest.raises(CycleFormatError):
            P("(1,2)(1,3)", 4)

    def test_point_out_of_range(self):
        with pytest.raises(CycleFormatError):
            P("(1,7)", 4)

    @pytest.mark.parametrize("bad", ["(1,2", "1,2)", "(a,b)", "(1 2)", "()("])
    def test_malformed(self, bad):
        with pytest.raises(CycleFormatError):
            P(bad, 4)

    def test_whitespace_tolerated(self):
        assert P(" (1, 2) ( 3 ,4) ", 4) == P("(1,2)(3,4)", 4)

    def test_print_canonical_form(self):
        assert print_cycles(P("(2,3,1)(5,4)", 5)) == "(1,2,3)(4,5)"
        assert print_cycles(Permutation.identity(3)) == ""

    @given(perms)
    def test_parse_print_round_trip(self, p):
        assert parse_cycles(print_cycles(p), p.degree) == p

    @given(perms)
    @settings(max_examples=30)
    def test_round_trip_is_idempotent_on_text(self, p):
        text = print_cycles(p)
        again = print_cycles(parse_cycles(text, p.degree))
        assert again == text


class TestPermutationType:
    def test_not_a_bijection(self):
        with pytest.raises(ValueError):
            Permutation([1, 1, 3])

    def test_degree_zero_is_refused(self):
        with pytest.raises(ValueError, match="positive"):
            Permutation([])

    def test_order_against_a_non_permutation_is_a_type_error(self):
        with pytest.raises(TypeError):
            P("(1,2)", 3) < 3
        with pytest.raises(TypeError):
            3 > P("(1,2)", 3)

    def test_images_are_one_based(self):
        p = P("(1,2)", 3)
        assert p.images == (2, 1, 3)
        assert Permutation([2, 1, 3]) == p

    def test_hashable(self):
        assert len({P("(1,2)", 3), P("(1,2)", 3), P("(1,3)", 3)}) == 2


def test_is_prime_small_values():
    assert [n for n in range(2, 32) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31,
    ]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
