"""Let `python -m fisherbound` subprocesses import the src/ tree under test,
and count how often a model forms its distribution.

pyproject.toml puts src/ on the test process's sys.path; the CLI tests
that start a subprocess need it on PYTHONPATH as well, so that plain
`pytest` works in a fresh checkout without an install.
"""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    path for path in (SRC, os.environ.get("PYTHONPATH")) if path
)


@pytest.fixture
def formations(monkeypatch):
    """formations(model) -> a list that gains the method's name each time
    model forms its distribution: each call of probs or contains that is not
    made from inside the other, since either forms b + A theta once."""
    def count(model):
        formed, depth = [], [0]

        def counted(real):
            def wrapper(theta):
                if not depth[0]:
                    formed.append(real.__name__)
                depth[0] += 1
                try:
                    return real(theta)
                finally:
                    depth[0] -= 1
            return wrapper

        for name in ("probs", "contains"):
            monkeypatch.setattr(model, name, counted(getattr(model, name)))
        return formed

    return count
