"""Let `python -m fisherbound` subprocesses import the src/ tree under test.

pyproject.toml puts src/ on the test process's sys.path; the CLI tests
that start a subprocess need it on PYTHONPATH as well, so that plain
`pytest` works in a fresh checkout without an install.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    path for path in (SRC, os.environ.get("PYTHONPATH")) if path
)
