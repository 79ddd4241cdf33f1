import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import indpoly.cnf
import indpoly.graphs
from indpoly import (
    CapacityError,
    CnfFormula,
    DomainError,
    FormulaError,
    Graph,
    GraphFormatError,
    as_rational,
    format_rational,
    parse_dimacs,
    parse_graph_text,
    parse_rational,
    path_graph,
)
from indpoly.rationals import _token_reader, parse_int


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

    def test_argument_errors_stay_typed(self):
        # A message shows such an int by its sign and bit length.
        with pytest.raises(DomainError, match=r"^vertex count must be an integer >= 0, got -<int of 16610 bits>$"):
            Graph(-10**5000)
        with pytest.raises(CapacityError, match=r"^<int of 16610 bits> vertices exceed the bound"):
            Graph(10**5000)
        with pytest.raises(DomainError, match=r"^edge \(0, <int of 16610 bits>\) out of range for n=3$"):
            Graph(3, [(0, 10**5000)])
        with pytest.raises(DomainError, match=r"^invalid vertex id -<int of 16610 bits> for n=3$"):
            path_graph(3).degree(-10**5000)
        with pytest.raises(FormulaError, match=r"^clause 1: literal <int of 16610 bits> out of range 1..3$"):
            CnfFormula(3, [[10**5000]])
        with pytest.raises(DomainError, match=r"^invalid vertex id a for n=3$"):
            path_graph(3).degree("a")

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


# Signs, ASCII digits, "_", full-width digits; and 4301-digit numbers,
# one past the int/str digit limit.
TOKENS = st.one_of(
    st.text(alphabet="+-_0123456789\uff10\uff11\uff13", min_size=1, max_size=4),
    st.sampled_from(["1", "-2", "+3", "05", "1" + "0" * 4300, "-" + "9" * 4301]),
)


def _outcome(read, text, error):
    try:
        return read(text)
    except error as exc:
        return str(exc)


class TestTokenReader:
    """Both text readers read each integer token by ``parse_int``'s rule:
    ``int`` itself in ASCII text without "_", ``parse_int`` otherwise."""

    def test_int_only_where_it_takes_what_parse_int_takes(self):
        assert _token_reader("p cnf 3 1\n1 -2 +3 0\n") is int
        for text in ("1_0 0", "\uff13 0", "c \u00e9\n1 0"):
            assert _token_reader(text) is parse_int

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(TOKENS, min_size=1, max_size=3), max_size=4))
    def test_formulas_read_as_by_parse_int(self, lines):
        text = f"p cnf 9 {len(lines)}\n" + "".join(" ".join(line) + " 0\n" for line in lines)
        got = _outcome(parse_dimacs, text, FormulaError)
        with mock.patch.object(indpoly.cnf, "_token_reader", lambda text: parse_int):
            assert got == _outcome(parse_dimacs, text, FormulaError)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(TOKENS, TOKENS), max_size=4))
    def test_graphs_read_as_by_parse_int(self, edges):
        text = f"p is 9 {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)
        got = _outcome(parse_graph_text, text, GraphFormatError)
        with mock.patch.object(indpoly.graphs, "_token_reader", lambda text: parse_int):
            assert got == _outcome(parse_graph_text, text, GraphFormatError)
