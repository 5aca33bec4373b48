"""mypy over the typed core — the same invocation CI's
static-analysis job runs.  Skipped where mypy is not installed (the
default container image); reprolint's ``typed-defs`` rule covers
annotation *completeness* everywhere, mypy adds consistency in CI.
"""

import importlib.util
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

#: One definition of "the typed core", shared with the CI job and the
#: typed-defs rule (tools/reprolint/rules.py TYPED_CORE).
TYPED_CORE = (
    "src/repro/sweep",
    "src/repro/faults",
    "src/repro/analyzer",
    "src/repro/directory",
    "src/repro/scenarios/base.py",
    "src/repro/simnet/workload.py",
    "src/repro/hostd/records.py",
    "src/repro/core/registry.py",
)


def test_typed_core_matches_rule_definition():
    from tools.reprolint.rules import TYPED_CORE as RULE_CORE

    assert tuple(TYPED_CORE) == tuple(RULE_CORE)


def test_typed_core_modules_are_strict_in_pyproject():
    """A single-module TYPED_CORE member inside a relaxed package must
    be named in pyproject's strict override, or mypy checks it under
    the relaxed rules while CI believes it is typed."""
    config = tomllib.loads((REPO / "pyproject.toml").read_text("utf-8"))
    strict = set()
    for override in config["tool"]["mypy"]["overrides"]:
        if override.get("disallow_untyped_defs") is True:
            modules = override["module"]
            strict.update([modules] if isinstance(modules, str) else modules)
    members = {
        path.removeprefix("src/").removesuffix(".py").replace("/", ".")
        for path in TYPED_CORE
        if path.endswith(".py")
    }
    assert members <= strict, sorted(members - strict)


@pytest.mark.skipif(
    importlib.util.find_spec("mypy") is None,
    reason="mypy not installed (CI's static-analysis job runs it)",
)
def test_mypy_typed_core_is_clean():
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", *TYPED_CORE],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
