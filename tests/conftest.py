"""Give the suite's `python -m inframono` subprocesses the src/ path that
pyproject's ``pythonpath`` gives pytest itself, so a fresh checkout runs
without an install."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
