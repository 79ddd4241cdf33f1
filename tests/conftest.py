import os
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import indpoly
import indpoly.isp


def pytest_configure(config):
    # The CLI and oracle subprocesses the tests start import the same
    # indpoly as this process, wherever ``pythonpath`` found it.
    src = str(Path(indpoly.__file__).resolve().parent.parent)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


def _inner(function, name):
    """The code object of ``function``'s nested function ``name``."""
    inner = [c for c in function.__code__.co_consts if getattr(c, "co_name", None) == name]
    assert len(inner) == 1
    return inner[0]


@contextmanager
def _first_arguments(codes):
    """A list that gains the first argument of each call of a function whose
    code is in ``codes``.  The calls are seen by a profile hook, which
    passes every event on to the hook it replaces and is removed
    afterwards, so the fixtures below nest and ``src/`` needs no hook of
    its own."""
    calls = []
    previous = sys.getprofile()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls.append(frame.f_locals[frame.f_code.co_varnames[0]])
        if previous is not None:
            previous(frame, event, arg)

    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(previous)


@pytest.fixture
def component_splits():
    """The masks of the component splits in ``isp``, one per split: a call
    of an inner split function, ``count_transversal_is``'s
    ``subgraph_count`` or ``isp_eval``'s ``subgraph_value``."""
    splits = {_inner(indpoly.isp.count_transversal_is, "subgraph_count"), _inner(indpoly.isp.isp_eval, "subgraph_value")}
    with _first_arguments(splits) as calls:
        yield calls


@pytest.fixture
def branch_nodes():
    """The components ``isp_eval`` branches on, one per branch node: a call
    of its inner ``component_value``, which only a memo miss reaches."""
    with _first_arguments({_inner(indpoly.isp.isp_eval, "component_value")}) as calls:
        yield calls


@pytest.fixture
def limit_writes(monkeypatch):
    """The limits passed to ``sys.setrecursionlimit`` during the test, one
    per call; each is still applied."""
    writes = []
    set_limit = sys.setrecursionlimit

    def recorded(limit):
        writes.append(limit)
        set_limit(limit)

    monkeypatch.setattr(sys, "setrecursionlimit", recorded)
    return writes
