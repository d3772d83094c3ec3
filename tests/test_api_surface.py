"""The program names outside callers bind to stay resolvable.

``benchmarks/e2e/layers.py`` replaces every ``TARGETS`` entry with a
span-recording wrapper, and reports a target it cannot resolve as
missing rather than failing — so a refactor that loses one would show
only in the benchmark's traced run. This resolves every target exactly
as ``layers.install`` does, without installing anything, and resolves
the ``[project.scripts]`` entry ``pip install`` turns into the ``repro``
command.

``RETIRED`` names the targets the frozen harness still lists although
the program deleted them on purpose; the benchmark reports exactly these
as missing until its own target table drops them.
"""

import importlib
import os
import subprocess
import sys

E2E = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "benchmarks", "e2e")


#: Wrap target -> why the program no longer defines it.
RETIRED = {
    "repro.analysis.timeline:build_timeline":
        "the second recovery narrative is gone; `repro run --timeline` "
        "prints the obs phase report",
    "repro.analysis.timeline:render_timeline":
        "now `repro.obs.export:render_timeline`, re-exported as "
        "`repro.analysis.render_timeline`, which the harness calls",
    "repro.crypto.signatures:KeyDirectory.sign_bytes_batch":
        "the second signing path is gone; the agent signs each sensor "
        "frame through `KeyDirectory.sign_bytes`, which the harness "
        "also wraps",
}


def _layers():
    if E2E not in sys.path:
        sys.path.insert(0, E2E)
    return importlib.import_module("layers")


def test_every_wrap_target_resolves():
    layers = _layers()
    layers.import_program()
    missing = []
    for _span, target, _fine, _observe in layers.TARGETS:
        module_name, _, path = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(target)
            continue
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            # A class attribute must be defined on the class itself: an
            # inherited method is not what install() would wrap.
            owner = getattr(module, owner_name, None)
            found = vars(owner).get(attr) if owner is not None else None
        else:
            found = getattr(module, attr, None)
        if found is None:
            missing.append(target)
    assert sorted(missing) == sorted(RETIRED)


def _project_scripts(path: str) -> dict:
    """The ``[project.scripts]`` table of ``pyproject.toml``, one
    ``name = "module:attr"`` line per entry. Read by hand: ``tomllib``
    arrived in Python 3.11 and the project supports 3.10."""
    scripts, inside = {}, False
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("["):
                inside = line == "[project.scripts]"
            elif inside and "=" in line:
                name, _, target = line.partition("=")
                scripts[name.strip()] = target.strip().strip('"')
    return scripts


def test_console_script_entry_resolves():
    """``pip install`` points the ``repro`` command at the
    ``[project.scripts]`` entry; it must name a callable."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    scripts = _project_scripts(os.path.join(root, "pyproject.toml"))
    assert scripts
    for target in scripts.values():
        module_name, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module_name), attr))


def test_cli_import_leaves_networkx_unloaded():
    """networkx is a test-only dependency: the program, from the
    ``repro`` command's module down, must not import it."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; print('networkx' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert (out.returncode, out.stdout.strip()) == (0, "False"), out.stderr
