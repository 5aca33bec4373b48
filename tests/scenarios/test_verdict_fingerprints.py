"""Verdict fingerprints: every registered scenario's diagnosis, pinned.

Each scenario runs at its smoke knobs and is reduced to one SHA-256
over what a refactor must not move: the simulated end time, every
verdict (problem, suspect, status, culprits and the RPC latency
breakdown parts), the fault-plan statuses and the dataplane
``SwitchStats`` totals.  The expected digests live in
``verdict_fingerprints.json`` next to this file.

The digests are computed in fresh interpreters under several
``PYTHONHASHSEED`` values, so a verdict that silently depends on set or
dict iteration order fails here rather than in one unlucky CI run.

Regenerate the expected file (only when a behaviour change is
intended) with::

    PYTHONPATH=src python tests/scenarios/test_verdict_fingerprints.py --update
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from repro.scenarios import REGISTRY, SwitchStats, run_scenario

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "verdict_fingerprints.json"
SRC = HERE.parents[1] / "src"
HASH_SEEDS = ("0", "1", "12345")


def _culprit(c) -> list:
    shared = c.shared_epochs
    return [list(c.flow), c.host, c.switch, c.priority, c.bytes,
            None if shared is None else [shared.lo, shared.hi]]


def canonical(result) -> dict:
    """The fingerprinted view of one :class:`ScenarioResult`."""
    totals = {f.name: sum(getattr(s, f.name)
                          for s in result.switch_stats.values())
              for f in fields(SwitchStats)}
    return {
        "sim_time": result.sim_time,
        "verdicts": [{"problem": v.problem, "suspect": v.suspect,
                      "status": v.status,
                      "culprits": [_culprit(c) for c in v.culprits],
                      "parts": v.breakdown.parts}
                     for v in result.verdicts],
        "fault_plan": result.measurements.get("fault_plan"),
        "switch_stats": totals,
    }


def fingerprints() -> dict[str, str]:
    """Scenario name -> SHA-256 of its canonical smoke-run result."""
    out = {}
    for name in REGISTRY.names():
        result = run_scenario(name, **REGISTRY.get(name).spec.smoke_knobs)
        blob = json.dumps(canonical(result), sort_keys=True)
        out[name] = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    return out


def _fingerprints_under(hash_seed: str) -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve())],
                          env=env, capture_output=True, text=True,
                          check=False, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
def test_verdict_fingerprints_match_committed(hash_seed):
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    got = _fingerprints_under(hash_seed)
    assert sorted(got) == sorted(expected), "scenario set changed"
    changed = sorted(n for n in expected if got[n] != expected[n])
    assert not changed, f"verdict fingerprints changed: {changed}"


if __name__ == "__main__":
    prints = fingerprints()
    if "--update" in sys.argv[1:]:
        EXPECTED.write_text(json.dumps(prints, indent=2, sort_keys=True)
                            + "\n", encoding="utf-8")
    else:
        print(json.dumps(prints, sort_keys=True))
