import json

import pytest

from solvrad.bsgs import build_bsgs, conjugacy_classes
from solvrad.perm import parse_cycles
from solvrad.structure import derived_subgroup, solvable_radical_oracle
from solvrad.zoo import (
    GroupFileError,
    GroupSpecError,
    PrimeFieldMatrix,
    alternating,
    construct,
    load_group_file,
    psl2_perm,
    symmetric,
)


class TestConstructors:
    @pytest.mark.parametrize("spec,order", [
        ("S(1)", 1), ("S(2)", 2), ("S(5)", 120), ("S(6)", 720),
        ("A(1)", 1), ("A(2)", 1), ("A(3)", 3), ("A(4)", 12), ("A(5)", 60),
        ("A(6)", 360), ("A(7)", 2520),
        ("C(1)", 1), ("C(5)", 5), ("C(12)", 12),
        ("D(3)", 6), ("D(4)", 8), ("D(6)", 12),
    ])
    def test_family_orders(self, spec, order):
        gens = construct(spec)
        assert build_bsgs(gens).order == order
        assert gens.order == order  # known before the build

    def test_d6_acts_on_six_points(self):
        gens = construct("D(6)")
        assert gens.degree == 6

    def test_direct_product_order_and_degree(self):
        gens = construct("direct(C(5),A(5))")
        assert gens.degree == 10
        assert build_bsgs(gens).order == 300
        assert gens.order == 300

    def test_direct_product_order_is_unknown_with_a_file_factor(self, tmp_path):
        path = tmp_path / "s3.json"
        path.write_text(json.dumps({
            "format_version": 1, "name": "S3", "degree": 3,
            "generators": ["(1,2)", "(1,2,3)"],
        }))
        assert construct(f"file:{path}").order is None
        assert construct(f"direct(file:{path},C(2))").order is None
        nested = construct("direct(direct(S(3),C(2)),PSL2(5))")
        assert nested.order == build_bsgs(nested).order == 720

    def test_file_order_is_its_checked_claimed_order(self, tmp_path):
        path = tmp_path / "s3.json"
        path.write_text(json.dumps({
            "format_version": 1, "name": "S3", "degree": 3,
            "generators": ["(1,2)", "(1,2,3)"], "claimed_order": 6,
        }))
        assert construct(f"file:{path}").order == 6
        assert construct(f"direct(file:{path},C(2))").order == 12

    @pytest.mark.parametrize("n", range(3, 9))
    def test_alternating_inside_symmetric_index_two(self, n):
        S = build_bsgs(symmetric(n))
        A = build_bsgs(alternating(n))
        assert S.order == 2 * A.order
        assert all(S.contains(g) for g in A.generators)
        assert A.contains(parse_cycles("(1,2,3)", n))

    def test_whitespace_tolerated(self):
        assert build_bsgs(construct(" direct( C(2) , S(3) ) ")).order == 12

    @pytest.mark.parametrize("bad", [
        "", "S()", "S(x)", "Q(3)", "S(0)", "C(0)", "D(2)", "direct(S(3))",
        "direct()", "S(3)S(3)", "S(3),", "PSL2(6)", "PSL2(3)", "PSL2(37)",
        "direct(direct(direct(direct(C(2),C(2)),C(2)),C(2)),C(2))",
    ])
    def test_invalid_specs(self, bad):
        with pytest.raises(GroupSpecError):
            construct(bad)


class TestPSL2:
    @pytest.mark.parametrize(
        "p,order", [(5, 60), (7, 168), (11, 660), (13, 1092), (31, 14880)]
    )
    def test_orders(self, p, order):
        gens = psl2_perm(p)
        assert gens.degree == p + 1
        got = build_bsgs(gens).order
        assert got == order == p * (p - 1) * (p + 1) // 2
        assert gens.order == order

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_perfect_with_trivial_radical(self, p):
        g = build_bsgs(psl2_perm(p))
        assert derived_subgroup(g).order == g.order
        r = solvable_radical_oracle(g, conjugacy_classes(g))
        assert r.subgroup.order == 1

    def test_psl2_5_looks_like_a5(self):
        # same order and class sizes as the alternating group on 5 letters
        g = build_bsgs(psl2_perm(5))
        sizes = sorted(c.class_size for c in conjugacy_classes(g))
        assert g.order == 60 and sizes == [1, 12, 12, 15, 20]

    @pytest.mark.parametrize("p", [3, 4, 6, 9, 33, 37])
    def test_parameter_validation(self, p):
        with pytest.raises(GroupSpecError):
            psl2_perm(p)


class TestPrimeFieldMatrix:
    def test_multiplication_mod_p(self):
        a = PrimeFieldMatrix(5, ((1, 1), (0, 1)))
        b = PrimeFieldMatrix(5, ((0, -1), (1, 0)))
        assert (a * b).entries == ((1, 4), (1, 0))

    def test_determinant(self):
        assert PrimeFieldMatrix(7, ((2, 3), (1, 5))).determinant() == 0
        assert PrimeFieldMatrix(5, ((1, 1), (0, 1))).determinant() == 1

    def test_singular_matrix_has_no_action(self):
        with pytest.raises(ValueError):
            PrimeFieldMatrix(7, ((2, 3), (1, 5))).projective_permutation()

    def test_transvection_action(self):
        # z -> z+1 on the projective line over F5, fixing infinity
        p = PrimeFieldMatrix(5, ((1, 1), (0, 1))).projective_permutation()
        assert p.degree == 6
        assert p(6) == 6  # infinity fixed
        assert [p(i) for i in range(1, 6)] == [2, 3, 4, 5, 1]

    def test_inversion_action(self):
        # z -> -1/z swaps 0 and infinity over F5
        p = PrimeFieldMatrix(5, ((0, -1), (1, 0))).projective_permutation()
        assert p(1) == 6 and p(6) == 1


class TestDirectProductRadicals:
    def test_c5_a5_radical_is_first_factor(self, group_of, classes_of):
        spec = "direct(C(5),A(5))"
        r = solvable_radical_oracle(group_of(spec), classes_of(spec))
        assert r.subgroup.order == 5
        assert r.subgroup.contains(parse_cycles("(1,2,3,4,5)", 10))

    def test_s4_a5_radical_is_s4_factor(self, group_of, classes_of):
        spec = "direct(S(4),A(5))"
        g = group_of(spec)
        assert g.order == 1440
        r = solvable_radical_oracle(g, classes_of(spec))
        assert r.subgroup.order == 24
        assert r.subgroup.contains(parse_cycles("(1,2)", 9))
        assert r.subgroup.contains(parse_cycles("(1,2,3,4)", 9))


def write_file(tmp_path, doc, name="g.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def s4_doc(**overrides):
    doc = {
        "format_version": 1,
        "name": "S4-reencoded",
        "degree": 4,
        "generators": ["(1,2)", "(1,2,3,4)"],
        "claimed_order": 24,
        "provenance": "unit test",
    }
    doc.update(overrides)
    return doc


class TestGroupFiles:
    def test_s4_reencoding_loads(self, tmp_path):
        gens, meta = load_group_file(write_file(tmp_path, s4_doc()))
        assert build_bsgs(gens).order == 24
        assert meta.name == "S4-reencoded"
        assert meta.claimed_order == 24

    def test_claimed_order_mismatch_is_hard_error(self, tmp_path):
        with pytest.raises(GroupFileError, match="order mismatch"):
            load_group_file(write_file(tmp_path, s4_doc(claimed_order=100)))

    def test_the_checked_build_is_handed_on(self, tmp_path):
        path = write_file(tmp_path, s4_doc())
        gens = construct(f"file:{path}")
        assert gens.built is not None and gens.built.order == 24
        assert build_bsgs(gens) is gens.built
        # a product with a file factor is built as the product
        product = construct(f"direct(file:{path}, C(3))")
        assert product.built is None
        assert build_bsgs(product).order == product.order == 72

    def test_claimed_order_optional(self, tmp_path):
        doc = s4_doc()
        del doc["claimed_order"]
        gens, meta = load_group_file(write_file(tmp_path, doc))
        assert meta.claimed_order is None
        assert gens.built is None
        assert build_bsgs(gens).order == 24

    def test_unsupported_format_version(self, tmp_path):
        with pytest.raises(GroupFileError, match="format_version"):
            load_group_file(write_file(tmp_path, s4_doc(format_version=2)))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(GroupFileError):
            load_group_file(str(path))

    def test_missing_file(self):
        with pytest.raises(GroupFileError, match="not found"):
            load_group_file("no-such-file.json")

    def test_bad_cycle_text(self, tmp_path):
        with pytest.raises(GroupFileError, match="bad generator"):
            load_group_file(
                write_file(tmp_path, s4_doc(generators=["(1,2", "(1,2,3,4)"]))
            )

    def test_point_beyond_degree(self, tmp_path):
        with pytest.raises(GroupFileError, match="bad generator"):
            load_group_file(
                write_file(tmp_path, s4_doc(generators=["(1,5)", "(1,2,3,4)"]))
            )

    def test_construct_via_file_spec(self, tmp_path):
        path = write_file(tmp_path, s4_doc())
        assert build_bsgs(construct(f"file:{path}")).order == 24

    def test_file_spec_inside_direct(self, tmp_path):
        path = write_file(tmp_path, s4_doc())
        gens = construct(f"direct(file:{path}, C(3))")
        assert gens.degree == 7
        assert build_bsgs(gens).order == 72

    def test_packaged_sz8_fixture_resolves(self):
        gens, meta = load_group_file("sz8.json")
        assert meta.degree == 65
        assert meta.claimed_order == 29120
        assert meta.provenance
