"""Every script under ``examples/`` runs to completion.

Each example is the library's public API in use (README points readers
at them), so each runs here as its own process, the way a reader runs
it, and must exit 0.
"""

import os
import subprocess
import sys

import pytest

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(ROOT, "examples")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.mark.parametrize("name", sorted(
    name for name in os.listdir(EXAMPLES) if name.endswith(".py")))
def test_example_runs(name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep))
    done = subprocess.run([sys.executable, os.path.join(EXAMPLES, name)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout
