import os
from pathlib import Path

import indpoly


def pytest_configure(config):
    # The CLI and oracle subprocesses the tests start import the same
    # indpoly as this process, wherever ``pythonpath`` found it.
    src = str(Path(indpoly.__file__).resolve().parent.parent)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
