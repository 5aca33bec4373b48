"""The generic registry and the contract every catalogue shares.

One parametrized suite runs over the five process-wide registries
(scenarios, faults, sweeps, experiments, directory backends); their
catalogue-specific validation stays tested next to each catalogue.
"""

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.core.registry import Registry
from repro.directory import DIRECTORIES, DirectoryError
from repro.experiment import EXPERIMENTS, ExperimentError
from repro.faults import FAULTS, FaultError
from repro.scenarios import REGISTRY, ScenarioError
from repro.sweep import SWEEPS, SweepError

REPO = Path(__file__).resolve().parents[2]

CATALOGUES = {
    "scenario": (REGISTRY, ScenarioError),
    "fault": (FAULTS, FaultError),
    "sweep": (SWEEPS, SweepError),
    "experiment": (EXPERIMENTS, ExperimentError),
    "directory backend": (DIRECTORIES, DirectoryError),
}


@pytest.fixture(params=sorted(CATALOGUES))
def catalogue(request):
    registry, error = CATALOGUES[request.param]
    return request.param, registry, error


class TestCatalogueContract:
    def test_kind_and_error_are_the_catalogues_own(self, catalogue):
        kind, registry, error = catalogue
        assert registry.kind == kind
        assert registry.error is error

    def test_duplicate_rejected(self, catalogue):
        kind, registry, error = catalogue
        name = registry.names()[0]
        before = len(registry)
        with pytest.raises(error, match=f"duplicate {kind} name '{name}'"):
            registry.register(registry.get(name))
        assert len(registry) == before

    def test_unknown_name_lists_known_names(self, catalogue):
        kind, registry, error = catalogue
        known = ", ".join(registry.names())
        with pytest.raises(error) as exc:
            registry.get("no-such-entry")
        assert str(exc.value) == (
            f"unknown {kind} 'no-such-entry'; known: {known}")

    def test_names_sorted_and_specs_aligned(self, catalogue):
        _, registry, _ = catalogue
        names = registry.names()
        assert names and names == sorted(names)
        assert [spec.name for spec in registry.specs()] == names

    def test_len_iter_and_in_agree(self, catalogue):
        _, registry, _ = catalogue
        names = registry.names()
        assert list(registry) == names
        assert len(registry) == len(names)
        assert all(name in registry for name in names)
        assert "no-such-entry" not in registry


@pytest.mark.parametrize("module, registry, expected", [
    ("repro.sweep", "SWEEPS", SWEEPS.names()),
    ("repro.experiment", "EXPERIMENTS", EXPERIMENTS.names()),
])
def test_lone_import_sees_full_catalogue(module, registry, expected):
    """The lazy loader fills a registry whose declarations live in
    other modules, for a process that imported only the registry."""
    code = (f"import json; from {module} import {registry}; "
            f"print(json.dumps({registry}.names()))")
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == expected


@dataclass(frozen=True)
class _Spec:
    name: str
    aliases: tuple[str, ...] = ()


class _ProbeError(Exception):
    pass


def _registry(**hooks):
    return Registry("probe", _ProbeError, **hooks)


class TestRegistry:
    def test_aliases_resolve_but_are_not_names(self):
        reg = _registry()
        spec = reg.register(_Spec("probe", aliases=("p",)))
        assert reg.get("p") is spec and reg.get("probe") is spec
        assert "p" in reg
        assert reg.names() == ["probe"] and len(reg) == 1

    @pytest.mark.parametrize("aliases, key", [
        (("p", "p"), "p"),
        (("probe",), "probe"),
    ])
    def test_key_repeated_within_one_spec_rejected(self, aliases, key):
        reg = _registry()
        with pytest.raises(_ProbeError,
                           match=f"duplicate probe name '{key}'"):
            reg.register(_Spec("probe", aliases=aliases))
        assert len(reg) == 0 and "p" not in reg

    def test_alias_colliding_with_earlier_name_rejected(self):
        reg = _registry()
        reg.register(_Spec("a"))
        with pytest.raises(_ProbeError, match="duplicate probe name 'a'"):
            reg.register(_Spec("b", aliases=("a",)))
        assert "b" not in reg

    def test_validate_runs_before_keying(self):
        def validate(spec):
            if spec.name.startswith("bad"):
                raise _ProbeError(f"rejected {spec.name}")

        reg = _registry(validate=validate)
        with pytest.raises(_ProbeError, match="rejected bad"):
            reg.register(_Spec("bad"))
        assert "bad" not in reg

    def test_spec_accessor_reaches_the_spec(self):
        item = type("Item", (), {"spec": _Spec("probe")})
        reg = _registry(spec=lambda cls: cls.spec)
        assert reg.register(item) is item
        assert reg.get("probe") is item
        assert reg.specs() == [item.spec]

    def test_load_runs_once_at_first_lookup(self):
        calls = []
        reg = _registry(load=lambda: calls.append(reg.register(_Spec("x"))))
        assert calls == []
        assert reg.names() == ["x"]
        assert "x" in reg and len(reg) == 1 and reg.get("x")
        assert len(calls) == 1

    def test_fresh_keeps_hooks_and_drops_entries(self):
        def validate(spec):
            if spec.name == "bad":
                raise _ProbeError("rejected")

        reg = _registry(validate=validate)
        reg.register(_Spec("a"))
        fresh = reg.fresh()
        assert len(fresh) == 0 and fresh.kind == "probe"
        fresh.register(_Spec("a"))
        with pytest.raises(_ProbeError, match="rejected"):
            fresh.register(_Spec("bad"))
