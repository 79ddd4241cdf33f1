import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indpoly import DomainError, as_rational, format_rational, parse_rational
from indpoly.rationals import parse_int


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

    @pytest.mark.parametrize(
        "bad",
        ["\u0663/\u0664", "-\uff11/\uff12", "1_0", "1/2_0", "1/+2", "3/", "/3"],
        ids=["arabic-indic", "fullwidth", "underscore", "underscore-den", "signed-den", "no-den", "no-num"],
    )
    def test_parse_takes_ascii_digits_only(self, bad):
        with pytest.raises(DomainError, match="malformed rational"):
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

    @pytest.mark.parametrize("bad", [0.5, True, False, None], ids=["float", "true", "false", "none"])
    def test_as_rational_rejects_non_rationals(self, bad):
        # bool is an int subclass, but True is not the rational 1.
        with pytest.raises(DomainError, match="not an exact rational"):
            as_rational(bad)

    def test_as_rational_coercions(self):
        assert as_rational(3) == Fraction(3)
        assert as_rational("4/6") == Fraction(2, 3)
        assert as_rational(Fraction(1, 2)) == Fraction(1, 2)
        with pytest.raises(DomainError):
            as_rational(0.5)


class TestPastTheDigitLimit:
    """Python refuses int <-> str conversions past 4300 digits by default;
    the wire format has no such limit, and never changes it."""

    def test_long_rational_round_trips(self):
        limit = sys.get_int_max_str_digits()
        x = Fraction(-(10**99999 + 1), 1024)  # a numerator of 10^5 digits
        text = format_rational(x)
        num, _, den = text.partition("/")
        assert (num[:3], len(num), num[-2:], den) == ("-10", 1 + 10**5, "01", "1024")
        assert parse_rational(text) == x
        assert sys.get_int_max_str_digits() == limit

    def test_only_rationals_take_any_length(self):
        # Counts, ids and options stay within the limit, so a longer one is
        # refused as malformed before any size check meets it.
        text = "+1" + "0" * 5000
        assert parse_rational(text) == 10**5000
        assert parse_rational("-1/" + text[1:]) == Fraction(-1, 10**5000)
        with pytest.raises(ValueError):
            parse_int(text)
        with pytest.raises(DomainError, match="malformed rational"):
            parse_rational(text + "x")


class TestParseInt:
    @pytest.mark.parametrize("text,value", [("0", 0), ("+7", 7), ("-12", -12), ("007", 7)])
    def test_sign_and_ascii_digits(self, text, value):
        assert parse_int(text) == value

    @pytest.mark.parametrize(
        "bad",
        ["", "+", "-", "--1", "+-1", "1_0", " 1", "1 ", "1.0", "0x1", "\uff13", "\u0663", "\u00b2"],
        ids=["empty", "plus", "minus", "double-sign", "mixed-sign", "underscore", "lead-space",
             "trail-space", "decimal", "hex", "fullwidth", "arabic-indic", "superscript"],
    )
    def test_rejects_what_int_alone_would_take(self, bad):
        with pytest.raises(ValueError):
            parse_int(bad)
