"""The value-type contract: a value of the package refuses assignment,
new attributes and ``del``, compares and hashes by its fields only, and
survives copy, deepcopy and a pickle round trip.  Every value type meets
it by being a frozen dataclass; a slotted one rebuilds itself through
``__reduce__``."""

import copy
import pickle
from fractions import Fraction

import pytest

from indpoly import CnfFormula, Graph, Polynomial, normalize_point, path_graph, reduce_to_graph


def values():
    """Type name -> (its fields, a value, an equal value built another way,
    a different value of the same type), built afresh for each test."""
    return {
        "Graph": (("n", "_masks"), path_graph(3), Graph(3, [(2, 1), (1, 0), (0, 1)]), Graph(3, [(0, 1)])),
        "Polynomial": (("coeffs",), Polynomial([1, 2]), Polynomial([Fraction(2, 2), "2", 0]), Polynomial([1, 3])),
        "CnfFormula": (
            ("variable_count", "clauses"),
            CnfFormula(2, [[1, 2]]),
            CnfFormula(2, [(1, 2, 1)]),
            CnfFormula(3, [[1, 2]]),
        ),
        "TransformPlan": (
            ("original_point", "steps", "target_point", "factor_exponent_per_vertex"),
            normalize_point(-3),
            normalize_point("-3/1"),
            normalize_point(Fraction(-1, 2)),
        ),
        "GraphReduction": (
            ("formula", "reduced", "graph", "target", "multiplier", "cliques"),
            reduce_to_graph(CnfFormula(3, [[1, -2]])),
            reduce_to_graph(CnfFormula(3, [(1, -2, 1)])),
            reduce_to_graph(CnfFormula(3, [[1, 2]])),
        ),
    }


@pytest.fixture(params=sorted(values()))
def case(request):
    names, value, equal, other = values()[request.param]
    assert type(value).__name__ == request.param
    return names, value, equal, other


def test_assigning_a_field_raises(case):
    names, value = case[:2]
    for name in names:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        assert getattr(value, name) is before


def test_assigning_a_new_name_raises(case):
    value = case[1]
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "extra")


def test_deleting_a_field_raises(case):
    names, value = case[:2]
    for name in names:
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert hasattr(value, name)


def test_equal_values_are_equal_and_hash_equal(case):
    _, value, equal, _ = case
    assert value is not equal
    assert value == equal and equal == value
    assert hash(value) == hash(equal)


def test_different_values_and_other_types_are_unequal(case):
    names, value, _, other = case
    assert value != other and other != value
    as_tuple = tuple(getattr(value, name) for name in names)
    assert value != as_tuple and as_tuple != value
    others = [v[1] for name, v in values().items() if name != type(value).__name__]
    assert all(value != v and v != value for v in others)


@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_are_equal_values(case, duplicate):
    names, value = case[:2]
    twin = duplicate(value)
    assert type(twin) is type(value)
    assert twin == value and hash(twin) == hash(value)
    assert [getattr(twin, name) for name in names] == [getattr(value, name) for name in names]
    if isinstance(value, Graph):
        assert twin.edges == value.edges
