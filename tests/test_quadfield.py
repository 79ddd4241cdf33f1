import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indpoly import (
    DegeneratePointError,
    DomainError,
    QuadExt,
    as_rational,
    format_rational,
    parse_rational,
    rational_sqrt,
    transfer_eigenvalues,
)


class TestRationalFormat:
    def test_parse_fraction(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-7/2") == Fraction(-7, 2)

    def test_parse_integer_shorthand(self):
        assert parse_rational("5") == Fraction(5)
        assert parse_rational("-12") == Fraction(-12)

    def test_parse_reduces_to_lowest_terms(self):
        assert parse_rational("2/4") == Fraction(1, 2)

    @pytest.mark.parametrize("bad", ["", "1.5", "a/b", "1/-2", "1/0", "1 / 2", "--3"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(DomainError):
            parse_rational(bad)

    def test_format_always_includes_denominator(self):
        assert format_rational(Fraction(21)) == "21/1"
        assert format_rational(Fraction(-2, 3)) == "-2/3"

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(50):
            q = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            assert parse_rational(format_rational(q)) == q

    @settings(deadline=None)
    @given(st.fractions())
    def test_round_trip_property(self, q):
        assert parse_rational(format_rational(q)) == q


class TestRationalSqrt:
    def test_perfect_squares(self):
        assert rational_sqrt(Fraction(9)) == 3
        assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert rational_sqrt(Fraction(0)) == 0

    def test_non_squares(self):
        assert rational_sqrt(Fraction(2)) is None
        assert rational_sqrt(Fraction(1, 3)) is None
        assert rational_sqrt(Fraction(-4)) is None


class TestQuadExtArithmetic:
    def test_conjugate_product(self):
        v = QuadExt(1, 1, 2) * QuadExt(1, -1, 2)
        assert v == QuadExt(-1, 0, 2)

    def test_eigenvalue_sum_is_one(self):
        half = Fraction(1, 2)
        total = QuadExt(half, half, 9) + QuadExt(half, -half, 9)
        assert total == QuadExt(1, 0, 9)

    def test_eigenvalue_product_is_minus_x(self):
        # x = 2: product of the two roots is 1/4 - 9/4 = -2
        half = Fraction(1, 2)
        prod = QuadExt(half, half, 9) * QuadExt(half, -half, 9)
        assert prod == QuadExt(-2, 0, 9)
        assert prod.rational_value() == -2

    def test_division_inverse(self):
        v = QuadExt(3, 2, 5)
        assert v / v == QuadExt(1, 0, 5)
        w = QuadExt(1, Fraction(1, 3), 5)
        assert (v / w) * w == v

    def test_division_by_zero_norm_nonzero_value(self):
        # 3 + sqrt(9) = 6 has conjugate norm 0 but is nonzero.
        v = QuadExt(3, 1, 9)
        assert (QuadExt(1, 0, 9) / v).rational_value() == Fraction(1, 6)

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            QuadExt(1, 0, 5) / QuadExt(0, 0, 5)
        with pytest.raises(ZeroDivisionError):
            # 3 - sqrt(9) is exactly zero despite nonzero coordinates
            QuadExt(1, 0, 9) / QuadExt(3, -1, 9)

    def test_mismatched_discriminants_rejected(self):
        with pytest.raises(DomainError):
            QuadExt(1, 1, 2) + QuadExt(1, 1, 3)
        with pytest.raises(DomainError):
            QuadExt(1, 1, 2) == QuadExt(1, 1, 3)

    def test_negative_discriminant_rejected(self):
        with pytest.raises(DomainError):
            QuadExt(1, 1, -4)

    def test_integer_promotion(self):
        v = QuadExt(1, 1, 5)
        assert v + 1 == QuadExt(2, 1, 5)
        assert 2 * v == QuadExt(2, 2, 5)
        assert 1 - v == QuadExt(0, -1, 5)

    def test_powers(self):
        v = QuadExt(1, 1, 2)
        assert v ** 0 == QuadExt(1, 0, 2)
        assert v ** 2 == QuadExt(3, 2, 2)
        assert v ** 3 == v * v * v
        assert v ** -1 == QuadExt(1, 0, 2) / v

    def test_perfect_square_value_equals_rational(self):
        # 1/2 + (1/2) sqrt(9) is the rational 2
        v = QuadExt(Fraction(1, 2), Fraction(1, 2), 9)
        assert v == QuadExt(2, 0, 9)
        assert v.is_rational()
        assert v.rational_value() == 2

    def test_irrational_value_rejects_rational_value(self):
        with pytest.raises(DomainError):
            QuadExt(1, 1, 2).rational_value()


class TestQuadExtSign:
    def test_zero(self):
        assert QuadExt(0, 0, 5).sign() == 0

    def test_positive_mixed(self):
        assert QuadExt(-1, 1, 9).sign() == 1  # -1 + 3

    def test_negative_mixed(self):
        assert QuadExt(1, -1, 2).sign() == -1  # 1 - sqrt(2)

    def test_rational_only(self):
        assert QuadExt(-3, 0, 7).sign() == -1
        assert QuadExt(3, 0, 7).sign() == 1

    def test_zero_discriminant(self):
        assert QuadExt(2, 5, 0).sign() == 1
        assert QuadExt(0, 5, 0).sign() == 0

    def test_cancellation_to_zero(self):
        assert QuadExt(3, -1, 9).sign() == 0
        assert QuadExt(-3, 1, 9).sign() == 0

    def test_consistent_with_rational_comparison(self):
        rng = random.Random(11)
        for _ in range(100):
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            d = Fraction(rng.choice([0, 1, 4, 9, 16]))
            value = a + b * rational_sqrt(d)
            got = QuadExt(a, b, d).sign()
            assert got == (-1 if value < 0 else (0 if value == 0 else 1))

    def test_transitive_ordering_sample(self):
        values = [
            QuadExt(0, 1, 2),
            QuadExt(1, 0, 2),
            QuadExt(1, 1, 2),
            QuadExt(-2, 2, 2),
            QuadExt(3, -1, 2),
        ]
        key = [float(v.a) + float(v.b) * math.sqrt(float(v.d)) for v in values]
        order = sorted(range(len(values)), key=lambda i: key[i])
        for i, j in zip(order, order[1:]):
            assert (values[j] - values[i]).sign() >= 0


class TestTransferEigenvalues:
    def test_integer_roots_at_x_2(self):
        t1, t2 = transfer_eigenvalues(2)
        assert t1 == QuadExt(2, 0, 9)
        assert t2 == QuadExt(-1, 0, 9)

    def test_integer_roots_at_x_6(self):
        t1, t2 = transfer_eigenvalues(6)
        assert t1.rational_value() == 3
        assert t2.rational_value() == -2

    def test_larger_root_first(self):
        for x in (Fraction(2), Fraction(1, 2), Fraction(-1, 5)):
            t1, t2 = transfer_eigenvalues(x)
            assert (t1 - t2).sign() == 1

    @pytest.mark.parametrize("x", [0, Fraction(-1, 4), -1, -5])
    def test_degenerate_points_rejected(self, x):
        with pytest.raises(DegeneratePointError):
            transfer_eigenvalues(x)

    def test_vieta_on_random_points(self):
        rng = random.Random(5)
        for _ in range(60):
            x = Fraction(rng.randint(1, 40), rng.randint(1, 12))
            if rng.random() < 0.3:
                x = -Fraction(rng.randint(1, 4), rng.randint(17, 40))  # in (-1/4, 0)
            t1, t2 = transfer_eigenvalues(x)
            assert t1 + t2 == QuadExt(1, 0, t1.d)
            assert t1 * t2 == QuadExt(-x, 0, t1.d)
            # roots of t^2 - t - x: x + t == t^2 for both
            assert t1 * t1 == t1 + x
            assert t2 * t2 == t2 + x

    def test_as_rational_coercions(self):
        assert as_rational(3) == Fraction(3)
        assert as_rational("4/6") == Fraction(2, 3)
        assert as_rational(Fraction(1, 2)) == Fraction(1, 2)
        with pytest.raises(DomainError):
            as_rational(0.5)
