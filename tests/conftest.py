import os
import sys
from pathlib import Path

import pytest

import indpoly
import indpoly.isp


def pytest_configure(config):
    # The CLI and oracle subprocesses the tests start import the same
    # indpoly as this process, wherever ``pythonpath`` found it.
    src = str(Path(indpoly.__file__).resolve().parent.parent)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def component_splits():
    """A list that gains an entry for each component split in ``isp``: a
    call of ``_components_of`` (the transversal counter's split) or of
    ``isp_eval``'s inner ``subgraph_value``, which splits inline.  The
    calls are seen by a profile hook, restored afterwards, so ``src/``
    needs no hook of its own."""
    inline = [c for c in indpoly.isp.isp_eval.__code__.co_consts if getattr(c, "co_name", None) == "subgraph_value"]
    assert len(inline) == 1
    codes = {indpoly.isp._components_of.__code__, inline[0]}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(previous)
