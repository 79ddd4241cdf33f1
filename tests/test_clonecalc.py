import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from indpoly import (
    CloneSpec,
    DegeneratePointError,
    DomainError,
    clone_correction_factor,
    clone_shifted_point,
    complete_graph,
    is_nondegenerate,
    isp_eval,
    normalize_point,
    path_weights,
    path_weights_closed_form,
    s_clone,
)
from indpoly.verify import STANDARD_WEIGHTS, random_graph


def _standard_weight_examples(test):
    """Pin every (x, k) with x in STANDARD_WEIGHTS and k <= 50 as an
    explicit hypothesis example."""
    for x in STANDARD_WEIGHTS:
        for k in range(51):
            test = example(x, k)(test)
    return test


class TestPathWeights:
    @pytest.mark.parametrize("k,expected", [(0, (2, 1)), (1, (2, 3)), (2, (6, 5))])
    def test_spot_values_at_x_2(self, k, expected):
        w = path_weights(2, k)
        assert (w.b, w.c) == expected

    def test_recurrence_shape(self):
        # B_{i+1} = x*C_i, C_{i+1} = B_i + C_i
        x = Fraction(1, 2)
        prev = path_weights(x, 4)
        cur = path_weights(x, 5)
        assert cur.b == x * prev.c
        assert cur.c == prev.b + prev.c

    def test_defined_for_degenerate_x(self):
        # recurrence from (-1/4, 1): (-1/4, 3/4), (-3/16, 1/2), (-1/8, 5/16)
        w = path_weights(Fraction(-1, 4), 3)
        assert (w.b, w.c) == (Fraction(-1, 8), Fraction(5, 16))

    def test_negative_length_rejected(self):
        with pytest.raises(DomainError):
            path_weights(2, -1)

    @settings(deadline=None)
    @given(
        st.fractions(min_value=Fraction(-1, 4), max_denominator=1000).filter(is_nondegenerate),
        st.integers(min_value=0, max_value=60),
    )
    @_standard_weight_examples
    def test_closed_form_agreement(self, x, k):
        w = path_weights(x, k)
        assert path_weights_closed_form(x, k) == (w.b, w.c)

    @pytest.mark.parametrize("x", [0, Fraction(-1, 4), -1, -5])
    def test_closed_form_degenerate_points_rejected(self, x):
        with pytest.raises(DegeneratePointError):
            path_weights_closed_form(x, 3)

    def test_c_k_never_zero_for_nondegenerate(self):
        for x in STANDARD_WEIGHTS:
            for k in range(0, 40):
                assert path_weights(x, k).c != 0

    @settings(deadline=None)
    @given(
        st.fractions(min_value=Fraction(-1, 4), max_denominator=1000).filter(is_nondegenerate),
        st.integers(min_value=0, max_value=60),
    )
    def test_c_and_next_c_never_vanish(self, x, s):
        # clone_shifted_point and clone_correction_factor divide by C_s and
        # by 1 + B_s/C_s = C_(s+1)/C_s without checking either for zero.
        w = path_weights(x, s)
        assert w.c != 0
        assert w.b + w.c != 0


class TestNondegeneracy:
    def test_positive(self):
        assert is_nondegenerate(2)
        assert is_nondegenerate(Fraction(-1, 5))

    def test_zero(self):
        assert not is_nondegenerate(0)

    def test_boundary(self):
        assert not is_nondegenerate(Fraction(-1, 4))
        assert not is_nondegenerate(-3)


class TestShiftedPoint:
    def test_defined_for_real_points(self):
        # t1 + t2 = 1 rules out |t1| = |t2|, so C_s and 1 + B_s/C_s never
        # vanish at a nondegenerate point
        rng = random.Random(31)
        for _ in range(40):
            x = Fraction(rng.choice([k for k in range(-9, 31) if k]), rng.randint(40, 47))
            spec = CloneSpec([rng.randint(0, 6) for _ in range(rng.randint(1, 3))])
            assert isinstance(clone_shifted_point(x, spec), Fraction)

    def test_zero_multiset_is_identity(self):
        assert clone_shifted_point(2, CloneSpec([0])) == 2

    def test_single_leaf_matches_leaf_identity(self):
        # {1} shifts x to x/(1+x)
        assert clone_shifted_point(2, CloneSpec([1])) == Fraction(2, 3)

    def test_double_zero_matches_2_clone(self):
        assert clone_shifted_point(2, CloneSpec([0, 0])) == 8

    def test_order_independence(self):
        rng = random.Random(32)
        for _ in range(20):
            x = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            entries = [rng.randint(0, 5) for _ in range(3)]
            shuffled = entries[:]
            rng.shuffle(shuffled)
            assert clone_shifted_point(x, CloneSpec(entries)) == clone_shifted_point(
                x, CloneSpec(shuffled)
            )

    def test_multiplicative_over_disjoint_union(self):
        rng = random.Random(33)
        for _ in range(20):
            x = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            s = [rng.randint(0, 4) for _ in range(2)]
            t = [rng.randint(0, 4) for _ in range(2)]
            lhs = 1 + clone_shifted_point(x, CloneSpec(s + t))
            rhs = (1 + clone_shifted_point(x, CloneSpec(s))) * (
                1 + clone_shifted_point(x, CloneSpec(t))
            )
            assert lhs == rhs

    def test_degenerate_rejected(self):
        with pytest.raises(DegeneratePointError):
            clone_shifted_point(Fraction(-1, 2), CloneSpec([1]))

    def test_zero_rejected(self):
        with pytest.raises(DegeneratePointError):
            clone_shifted_point(0, CloneSpec([1]))


class TestCorrectionFactor:
    def test_single_leaf_two_vertices(self):
        assert clone_correction_factor(2, CloneSpec([1]), 2) == 9

    def test_zero_multiset(self):
        assert clone_correction_factor(Fraction(1, 2), CloneSpec([0]), 5) == 1

    def test_path_of_two(self):
        assert clone_correction_factor(2, CloneSpec([2]), 1) == 5

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(DomainError):
            clone_correction_factor(2, CloneSpec([1]), -1)


class TestMasterIdentitySmoke:
    def test_worked_case(self):
        k2 = complete_graph(2)
        spec = CloneSpec([1])
        assert isp_eval(s_clone(k2, spec), 2) == 21
        assert clone_correction_factor(2, spec, 2) * isp_eval(
            k2, clone_shifted_point(2, spec)
        ) == 21

    def test_random_small(self):
        rng = random.Random(34)
        for _ in range(10):
            g = random_graph(rng, rng.randint(1, 4))
            spec = CloneSpec([rng.randint(0, 3) for _ in range(rng.randint(1, 2))])
            for x in (Fraction(2), Fraction(-1, 5)):
                lhs = isp_eval(s_clone(g, spec), x)
                rhs = clone_correction_factor(x, spec, g.n) * isp_eval(
                    g, clone_shifted_point(x, spec)
                )
                assert lhs == rhs


class TestNormalizePoint:
    def test_nondegenerate_passthrough(self):
        plan = normalize_point(5)
        assert plan.steps == ()
        assert plan.target_point == 5
        assert plan.factor(7) == 1

    def test_below_minus_two(self):
        plan = normalize_point(-3)
        assert plan.steps == (("two_clone",),)
        assert plan.target_point == 3
        assert plan.factor(4) == 1

    def test_minus_half(self):
        plan = normalize_point(Fraction(-1, 2))
        assert plan.steps == (("comb", 4), ("two_clone",))
        # intermediate point x/(1+x)^4 = -8, target (1-8)^2 - 1 = 48
        x = Fraction(-1, 2)
        assert x / (1 + x) ** 4 == -8
        assert plan.target_point == 48
        assert plan.factor_exponent_per_vertex == 8

    def test_minus_five_quarters(self):
        plan = normalize_point(Fraction(-5, 4))
        assert plan.steps == (("comb", 2), ("two_clone",))
        assert plan.target_point == 360

    def test_boundary_minus_quarter_needs_k_8(self):
        plan = normalize_point(Fraction(-1, 4))
        assert plan.steps[0] == ("comb", 8)
        assert is_nondegenerate(plan.target_point)

    @pytest.mark.parametrize("x", [0, -1, -2])
    def test_cycle_gadget_points_rejected(self, x):
        with pytest.raises(DomainError, match="cycle"):
            normalize_point(x)

    def test_plan_soundness(self):
        rng = random.Random(35)
        for x in (Fraction(-3), Fraction(-1, 2), Fraction(-5, 4)):
            plan = normalize_point(x)
            for _ in range(4):
                g = random_graph(rng, rng.randint(1, 4))
                transformed = plan.apply(g)
                assert isp_eval(transformed, x) / plan.factor(g.n) == isp_eval(
                    g, plan.target_point
                )

    def test_target_always_nondegenerate(self):
        rng = random.Random(36)
        for _ in range(40):
            x = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            if x in (0, -1, -2):
                continue
            plan = normalize_point(x)
            assert is_nondegenerate(plan.target_point)

    def test_serialization_shape(self):
        record = normalize_point(Fraction(-1, 2)).to_json_dict()
        assert record == {
            "original_point": "-1/2",
            "steps": [{"op": "comb", "k": 4}, {"op": "two_clone"}],
            "target_point": "48/1",
            "factor_base": "1/2",
            "factor_exponent_per_vertex": 8,
        }
