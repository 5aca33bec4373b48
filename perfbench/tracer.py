"""Outside-in tracer: times calls into each layer's public functions.

Nothing inside ``src/`` is instrumented.  :meth:`Tracer.install` swaps
the layer boundaries listed in :data:`BOUNDARIES` (class methods and
module functions) for timing wrappers, and :meth:`Tracer.uninstall`
puts the originals back, so an untraced repetition runs the unmodified
program.  Install before the scenario builds: objects that capture a
bound method at construction (host sniffers) capture the wrapper.

Two kinds of boundary are recorded:

* *aggregate* boundaries (per-packet and per-call work: pointer
  updates, decodes, MPHF lookups, path queries) keep a call count, total
  time and self time per context (``point`` or ``query``);
* *span* boundaries (scenario phases, one top-k query, one diagnose
  call) additionally append a span ``(id, parent, run, name, start,
  end)`` to an in-memory list that is written out at the end.

Self time is a boundary's duration minus the time its traced children
cover, so the self times of all boundaries plus the root spans add up
to the traced wall time.  A boundary's layer is its name's first
dotted component.
"""

from __future__ import annotations

import importlib
import inspect
import time
import types
from dataclasses import dataclass
from typing import Any, Callable, Optional

#: (layer boundary name, "module:Owner.attr" or "module:function",
#: is-span).  Module functions imported by name into a user module are
#: patched in that user module (``repro.scenarios.incast``).
BOUNDARIES: tuple[tuple[str, str, bool], ...] = (
    ("scenario.build", "repro.scenarios.incast:IncastScenario.build", True),
    ("scenario.run", "repro.scenarios.incast:IncastScenario.run", True),
    ("scenario.collect", "repro.scenarios.incast:IncastScenario.collect",
     True),
    ("scenario.diagnose", "repro.scenarios.incast:IncastScenario.diagnose",
     True),
    ("analyzer.diagnose", "repro.scenarios.incast:diagnose_incast", True),
    ("baselines.top_k",
     "repro.baselines.pathdump:top_k_with_switchpointer", True),
    ("deployment.init",
     "repro.deployment:SwitchPointerDeployment.__init__", False),
    ("simnet.build", "repro.scenarios.incast:build_leaf_spine", False),
    ("simnet.build", "repro.scenarios.incast:build_fat_tree_for_hosts",
     False),
    ("simnet.compute_routes", "repro.simnet.topology:Network.compute_routes",
     False),
    ("simnet.shortest_paths", "repro.simnet.topology:Network.shortest_paths",
     False),
    ("simnet.run", "repro.simnet.topology:Network.run", False),
    ("networkx", "networkx:all_shortest_paths", False),
    ("networkx", "networkx:single_source_shortest_path", False),
    ("networkx", "networkx:single_source_shortest_path_length", False),
    ("core.mphf_build", "repro.core.mphf:MinimalPerfectHash.build", False),
    ("core.mphf_lookup", "repro.core.mphf:MinimalPerfectHash.lookup", False),
    ("core.pointer_update",
     "repro.core.pointer:HierarchicalPointerStore.update", False),
    ("switchd.embed", "repro.switchd.cherrypick:CherryPickPlanner.pins_path",
     False),
    ("switchd.embed",
     "repro.switchd.cherrypick:CherryPickPlanner.embedding_hop", False),
    ("switchd.slot_update",
     "repro.switchd.datapath:SwitchPointerDatapath.process_slot_update",
     False),
    ("switchd.pull", "repro.switchd.agent:SwitchAgent.pull", False),
    ("hostd.decode", "repro.hostd.decoder:TelemetryDecoder.on_packet", False),
    ("hostd.decode", "repro.hostd.decoder:TelemetryDecoder.flush_batch",
     False),
    ("hostd.query", "repro.hostd.query:QueryEngine.top_k_flows", False),
    ("hostd.query", "repro.hostd.query:QueryEngine.flows_matching", False),
    ("directory.decode", "repro.core.mphf:HostDirectory.hosts_of", False),
    ("analyzer.hosts_for", "repro.analyzer.analyzer:Analyzer.hosts_for",
     False),
    ("analyzer.consult", "repro.analyzer.analyzer:Analyzer.consult_hosts",
     False),
    ("rpc.fanout", "repro.rpc.fabric:RpcFabric.fanout_query", False),
)


class Stat:
    """Aggregate of one boundary in one context."""

    __slots__ = ("calls", "total", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0


@dataclass
class Span:
    id: int
    parent: Optional[int]
    run: int
    name: str
    start: float
    end: float


class Tracer:
    """Timing wrappers around layer boundaries, plus a span list."""

    def __init__(self) -> None:
        #: frames of the calls in progress: [child seconds, span id]
        self._stack: list[list[Any]] = []
        self._stats: dict[str, dict[str, Stat]] = {}
        self._cur: dict[str, Stat] = {}
        #: extra counters per context, fed by result hooks
        self._counts: dict[str, dict[str, float]] = {}
        self._cur_counts: dict[str, float] = {}
        self.pairs: set[tuple[str, str]] = set()
        self.spans: list[Span] = []
        self.run_id = 0
        self._undo: list[Callable[[], None]] = []
        self.context("point")

    # -- contexts ---------------------------------------------------------

    def context(self, name: str) -> None:
        """Route subsequent aggregates to context ``name``."""
        self._cur = self._stats.setdefault(name, {})
        self._cur_counts = self._counts.setdefault(name, {})

    def take(self, name: str) -> tuple[dict[str, Stat], dict[str, float]]:
        """Return and reset the aggregates of context ``name``."""
        stats = self._stats.pop(name, {})
        counts = self._counts.pop(name, {})
        if name == "point":
            counts["simnet.shortest_paths.pairs"] = float(len(self.pairs))
            self.pairs = set()
        self.context(name)
        return stats, counts

    def count(self, key: str, value: float) -> None:
        self._cur_counts[key] = self._cur_counts.get(key, 0.0) + value

    # -- timing -----------------------------------------------------------

    def _enter(self, span: bool) -> tuple[list[Any], float]:
        parent = self._stack[-1][1] if self._stack else None
        frame = [0.0, len(self.spans) if span else parent]
        if span:
            self.spans.append(Span(len(self.spans), parent, self.run_id,
                                   "", 0.0, 0.0))
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _exit(self, name: str, frame: list[Any], start: float,
              span: bool) -> None:
        end = time.perf_counter()
        elapsed = end - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += elapsed
        stat = self._cur.get(name)
        if stat is None:
            stat = self._cur[name] = Stat()
        stat.calls += 1
        stat.total += elapsed
        stat.self_s += elapsed - frame[0]
        if span:
            rec = self.spans[frame[1]]
            rec.name, rec.start, rec.end = name, start, end

    def wrap(self, name: str, fn: Callable[..., Any], span: bool,
             on_result: Optional[Callable[..., None]] = None
             ) -> Callable[..., Any]:
        """A timing wrapper for ``fn``.

        A call that returns a generator stays lazy: each later step is
        timed as more of the same call, without counting another call.
        """
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame, start = tracer._enter(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame, start, span)
            if on_result is not None:
                on_result(tracer, args, out)
            if isinstance(out, types.GeneratorType):
                return tracer._steps(name, out)
            return out
        return wrapper

    def _steps(self, name: str, gen: Any) -> Any:
        while True:
            frame, start = self._enter(False)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._exit(name, frame, start, False)
                self._cur[name].calls -= 1
            yield item

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Swap every boundary in :data:`BOUNDARIES` for its wrapper."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, target, span in BOUNDARIES:
            module_name, _, path = target.partition(":")
            owner: Any = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
            own = attr in vars(owner)
            hook = _RESULT_HOOKS.get(target)
            if isinstance(raw, classmethod):
                patched: Any = classmethod(
                    self.wrap(name, raw.__func__, span, hook))
            else:
                patched = self.wrap(name, raw, span, hook)
            setattr(owner, attr, patched)
            self._undo.append(_restorer(owner, attr, raw, own))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def span_dicts(self) -> list[dict[str, Any]]:
        return [{"id": s.id, "parent": s.parent, "run": s.run,
                 "name": s.name, "start": s.start, "end": s.end}
                for s in self.spans]


def _restorer(owner: Any, attr: str, raw: Any,
              own: bool) -> Callable[[], None]:
    def restore() -> None:
        if own:
            setattr(owner, attr, raw)
        else:
            delattr(owner, attr)
    return restore


# -- result hooks: counts measured where the work happens ------------------

def _on_paths(tracer: Tracer, args: tuple, out: Any) -> None:
    tracer.pairs.add((args[1], args[2]))


def _on_deployment(tracer: Tracer, args: tuple, out: Any) -> None:
    deploy = args[0]
    tracer.count("deployment.agents",
                 len(deploy.switch_agents) + len(deploy.host_agents))


def _on_query(tracer: Tracer, args: tuple, out: Any) -> None:
    tracer.count("hostd.query.records_scanned", out.records_scanned)
    tracer.count("hostd.query.rows_returned", out.records_returned)


def _on_pull(tracer: Tracer, args: tuple, out: Any) -> None:
    tracer.count("switchd.pull.snapshots", len(out))


def _on_consult(tracer: Tracer, args: tuple, out: Any) -> None:
    results, _bd = out
    tracer.count("analyzer.consult.servers", len(args[1]))
    tracer.count("analyzer.consult.useful",
                 sum(1 for r in results.values() if r.records_returned))


def _on_fanout(tracer: Tracer, args: tuple, out: Any) -> None:
    tracer.count("rpc.servers", len(args[1]))


_RESULT_HOOKS: dict[str, Callable[[Tracer, tuple, Any], None]] = {
    "repro.simnet.topology:Network.shortest_paths": _on_paths,
    "repro.deployment:SwitchPointerDeployment.__init__": _on_deployment,
    "repro.hostd.query:QueryEngine.top_k_flows": _on_query,
    "repro.hostd.query:QueryEngine.flows_matching": _on_query,
    "repro.switchd.agent:SwitchAgent.pull": _on_pull,
    "repro.analyzer.analyzer:Analyzer.consult_hosts": _on_consult,
    "repro.rpc.fabric:RpcFabric.fanout_query": _on_fanout,
}
