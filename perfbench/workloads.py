"""The benchmark's workloads and the loop that measures them.

Every workload is the ``incast`` scenario at one fabric size and
background load, driven through the public scenario API
(``REGISTRY.get("incast")(**knobs).execute()``), followed by Fig 12
top-k queries (``top_k_with_switchpointer``) issued by one closed-loop
client: the next query is sent only after the previous one returned.
What differs between workloads is where the time goes:

* ``fabric-4k`` repeats scenario points whose build phase (MPHF, path
  planning) dominates;
* ``mice-20k`` repeats scenario points whose run phase (the per-packet
  simnet / switchd / hostd path) dominates;
* ``topk-1k`` populates a fabric (the per-packet path again) and then
  runs a long query loop against it (hostd scans, directory decode,
  analyzer, rpc).

The seed goes through ``repro.core.rng.seed_run`` before every point,
the hook ``cli run --seed`` uses, and also draws the query list.  Each
repetition of a run rebuilds the same point from the same seed, so the
simulated outputs of every repetition must be identical; the
fingerprint covers them.

Every verdict is compared with simulator ground truth, and a seed-drawn
sample of queries with the all-servers PathDump oracle, outside the
timed regions.  A mismatch is a failed operation.

Every reported time is wall time scaled to a reference machine speed
(:class:`SpeedClock`): on a shared host the speed of one core swings by
tens of percent over seconds to minutes, and a fixed probe timed while
each measured section runs tracks that swing.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.baselines import pathdump
from repro.core.epoch import EpochRange
from repro.core.rng import seed_run
from repro.scenarios import REGISTRY, ScenarioResult

from tracer import Stat, Tracer

#: seed used when ``--seed`` is not given (and for the committed
#: fingerprints)
DEFAULT_SEED = 1
#: the Fig 12 query: top-100 flows through one switch
TOP_K = 100
#: Pointer level the queries decode.  Level 2 sets cover α = 10 epochs,
#: the whole simulated run, so every server holding a record whose
#: extrapolated epoch range meets the window is contacted and the
#: answer equals the all-servers oracle.  Level-1 (per-epoch) windows
#: miss servers whose records claim the window only through the
#: estimator's ε/Δ slack; ``perfbench/audit.py`` reproduces that.
POINTER_LEVEL = 2
#: :func:`speed_probe` time that defines reference speed: about its time
#: on a quiet core of the 2-core x86-64 container (Python 3.11) the
#: benchmark was written on.  A timing reported in ``s`` is the wall time
#: the section would have taken on a core where the probe takes this long.
REFERENCE_PROBE_S = 0.0019
#: wall time between two speed probes while a repetition runs
SAMPLE_EVERY_S = 0.1
#: query-loop wall time whose latencies share one speed scale
QUERY_CHUNK_S = 0.5


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    knobs: dict[str, Any]
    #: measured repetitions per run at least, after the warm-up one
    #: (set-up time is a median over them)
    min_reps: int
    #: passes over every switch in the query list (list length is
    #: passes x switches; the seed draws each entry's epoch window)
    query_passes: int
    #: queries each repetition issues, continuing round-robin through
    #: the list
    queries: int
    #: set-up is populating the fabric the queries then read (build,
    #: run, collect and record flush), not the build phase alone
    populate: bool
    #: queries per repetition checked against the all-servers oracle
    oracle_sample: int


#: why each workload is in the benchmark: BENCHMARK.json and README.md
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="fabric-4k",
        knobs={"hosts": 4096, "bg_flows": 2000}, min_reps=3,
        query_passes=5, queries=400, populate=False,
        oracle_sample=8),
    # runnable, but not in BENCHMARK.json (README.md says why)
    Workload(
        name="mice-20k",
        knobs={"hosts": 1024, "bg_flows": 20000}, min_reps=3,
        query_passes=2, queries=40, populate=False,
        oracle_sample=8),
    Workload(
        name="topk-1k",
        knobs={"hosts": 1024, "bg_flows": 10000}, min_reps=3,
        query_passes=15, queries=300, populate=True,
        oracle_sample=16),
)}


_PROBE_KEYS = [str(i) for i in range(1000)]
_PROBE_TABLE: dict[str, int] = {}


def speed_probe() -> float:
    """Wall time of a fixed pure-Python workload (about 2 ms).

    Integer arithmetic plus string-keyed dict updates and a sort: the
    kind of work the simulator and the query path spend their time on.
    It refills one table and sorts plain ints, so it leaves the garbage
    collector's allocation counts where they were.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i
    table = _PROBE_TABLE
    table.clear()
    for r in range(2):
        for key in _PROBE_KEYS:
            table[key] = table.get(key, 0) + r
        sorted(table.values())
    return time.perf_counter() - t0


class SpeedClock:
    """Times sections in wall time and scales them to reference speed.

    While the clock is open, a real-time interval timer interrupts the
    program every :data:`SAMPLE_EVERY_S` and the signal handler runs
    :func:`speed_probe`, so the machine's speed is sampled *during* each
    timed section, not only next to it.  :meth:`now` is wall time minus
    the time the handler took, so the probes are not billed to the
    section they interrupt.  A section starts with :meth:`mark` and ends
    with :meth:`factor`, which returns the reference probe time over the
    median of the section's probes (three taken at each end, plus those
    the timer took in between).
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.stolen = 0.0
        self._previous: Any = None

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum: int, frame: Any) -> None:
        t0 = time.perf_counter()
        self.samples.extend(self._probe(1))
        self.stolen += time.perf_counter() - t0

    @staticmethod
    def _probe(n: int) -> list[float]:
        """``n`` probes, with the timer's signal held back meanwhile so
        that no probe times another, and with the garbage collector off:
        a collection started inside a probe would do the program's
        collection work where it is not billed to the program."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        collecting = gc.isenabled()
        gc.disable()
        try:
            return [speed_probe() for _ in range(n)]
        finally:
            if collecting:
                gc.enable()
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def now(self) -> float:
        return time.perf_counter() - self.stolen

    def mark(self) -> None:
        """Start a section: forget earlier probes, probe three times."""
        self.samples = self._probe(3)

    def factor(self) -> float:
        """End a section: its scale to reference speed.  The three
        closing probes also open the next section."""
        closing = self._probe(3)
        scale = REFERENCE_PROBE_S / statistics.median(self.samples + closing)
        self.samples = closing
        return scale


def _digest(obj: Any) -> str:
    blob = json.dumps(obj, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


def receiver_leaf(result: ScenarioResult) -> tuple[str, str]:
    """Ground truth from the topology: (receiver, its attachment switch).

    The incast receiver is the fabric's first host; it hangs off one
    switch, and that switch's downlink is where the fan-in overflows.
    """
    net = result.network
    receiver = net.host_names[0]
    for link in net.links:
        ends = {link.a.name, link.b.name}
        if receiver in ends:
            (leaf,) = ends - {receiver}
            return receiver, leaf
    raise ValueError(f"receiver {receiver} has no link")


def verdict_ok(result: ScenarioResult) -> bool:
    """Does the verdict match simulator ground truth?

    Correct means: ``incast``, complete, suspect = the receiver's leaf,
    and the simulator really dropped packets on that leaf's downlink.
    """
    receiver, leaf = receiver_leaf(result)
    net = result.network
    downlink = net.link_between(leaf, receiver).iface_of(net.switches[leaf])
    if not result.verdicts or downlink.queue.stats.dropped == 0:
        return False
    v = result.verdicts[0]
    return (v.problem, v.suspect, v.status) == ("incast", leaf, "complete")


def queue_drops(result: ScenarioResult) -> int:
    return sum(link.iface_of(node).queue.stats.dropped
               for link in result.network.links
               for node in (link.a, link.b))


def point_fingerprint(result: ScenarioResult,
                      records: dict[str, int]) -> str:
    """Hash of a point's deterministic (simulated) outputs."""
    net = result.network
    return _digest({
        "events": net.sim.events_processed,
        "sim_time": repr(result.sim_time),
        "switch_stats": {name: vars(st)
                         for name, st in result.switch_stats.items()},
        "queue_drops": queue_drops(result),
        "records": records,
        "measurements": {k: v for k, v in result.measurements.items()
                         if k != "fault_plan"},
        "verdicts": [(v.problem, v.suspect, v.status, len(v.culprits),
                      v.hosts_consulted, sorted(v.breakdown.parts.items()))
                     for v in result.verdicts],
    })


def draw_queries(result: ScenarioResult, seed: int,
                 passes: int) -> list[tuple[str, EpochRange]]:
    """The seed's query list: every switch once per pass, shuffled,
    each with a 1- or 2-epoch window inside the simulated run."""
    rng = random.Random(seed)
    alpha_s = result.knobs["alpha_ms"] / 1000.0
    n_epochs = max(2, int(round(result.sim_time / alpha_s)))
    switches = sorted(result.network.switches)
    out = []
    for _ in range(passes):
        order = list(switches)
        rng.shuffle(order)
        for sw in order:
            width = rng.choice((1, 2))
            lo = rng.randrange(0, n_epochs - width + 1)
            out.append((sw, EpochRange(lo, lo + width - 1)))
    return out


def answer_key(top: list, bd: Any) -> tuple:
    """Comparable form of one query's answer and modelled breakdown."""
    return (tuple((s.flow, s.bytes, s.packets) for s in top),
            tuple(sorted(bd.parts.items())))


@dataclass
class Rep:
    """Measurements of one repetition (a point plus its query segment).

    Times are scaled to reference speed; ``wall`` keeps the unscaled
    set-up, run, diagnose and point times.
    """

    traced: bool
    setup_s: float
    run_s: float
    diagnose_s: float
    point_s: float
    events: int
    wall: dict[str, float] = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)
    layer_point: dict[str, float] = field(default_factory=dict)


@dataclass
class RunResult:
    """Everything one benchmark run measured."""

    workload: Workload
    seed: int
    reps: list[Rep] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    point_fp: Optional[str] = None
    #: per query-list index: (servers contacted, modelled seconds, key)
    answers: dict[int, tuple[int, float, tuple]] = field(
        default_factory=dict)
    query_stats: dict[str, Stat] = field(default_factory=dict)
    query_counts: dict[str, float] = field(default_factory=dict)
    traced_queries: int = 0
    tracer: Optional[Tracer] = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    @property
    def fingerprint(self) -> str:
        queries = [(i, self.answers[i][0], self.answers[i][2])
                   for i in sorted(self.answers)]
        return _digest({"point": self.point_fp, "queries": queries})


def run_workload(workload: Workload, seed: int, seconds: float, *,
                 trace: bool) -> RunResult:
    """Measure ``workload`` for about ``seconds`` of wall time.

    The first repetition warms the process up (lazy imports, first-call
    caches): it is checked like every other one, but its times are
    not kept.  Without tracing every later repetition is untraced.
    With tracing, they alternate untraced / traced, starting untraced,
    so one run states the traced numbers next to the untraced ones.
    """
    out = RunResult(workload=workload, seed=seed)
    tracer = Tracer() if trace else None
    out.tracer = tracer
    min_reps = workload.min_reps + 2 if trace else workload.min_reps
    queries: list[tuple[str, EpochRange]] = []
    cursor = 0
    started = time.perf_counter()
    rep_index = 0
    with SpeedClock() as clock:
        while (rep_index <= min_reps
               or time.perf_counter() - started < seconds):
            traced = trace and rep_index > 0 and rep_index % 2 == 0
            rep, result = _point(out, tracer if traced else None, clock,
                                 seed, rep_index)
            if not queries:
                queries = draw_queries(result, seed, workload.query_passes)
            cursor = _query_segment(out, rep, result, queries, cursor,
                                    tracer if traced else None, clock)
            _oracle_check(out, result, queries, seed, rep_index)
            if rep_index > 0:
                out.reps.append(rep)
            rep_index += 1
            # drop the fabric before the next point's collection and build
            del result
    return out


def _point(out: RunResult, tracer: Optional[Tracer], clock: SpeedClock,
           seed: int, rep_index: int) -> tuple[Rep, ScenarioResult]:
    """One scenario point: build, run, collect, diagnose, flush."""
    gc.collect()
    seed_run(seed)
    scenario = REGISTRY.get("incast")(**out.workload.knobs)
    try:
        if tracer is not None:
            tracer.run_id = rep_index
            tracer.context("point")
            tracer.install()
        timings, wall = _time_phases(scenario, clock)
        result = scenario.execute()
        clock.mark()
        t0 = clock.now()
        records = result.deployment.record_stats()
        wall["flush"] = clock.now() - t0
        timings["flush"] = wall["flush"] * clock.factor()
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup = (("build", "run", "collect", "flush")
             if out.workload.populate else ("build",))
    phases = ("build", "run", "collect", "diagnose")
    rep = Rep(
        traced=tracer is not None,
        setup_s=sum(timings[p] for p in setup),
        run_s=timings["run"], diagnose_s=timings["diagnose"],
        point_s=sum(timings[p] for p in phases),
        events=result.network.sim.events_processed,
        wall={"setup_s": sum(wall[p] for p in setup),
              "run_s": wall["run"], "diagnose_s": wall["diagnose"],
              "point_s": sum(wall[p] for p in phases)})
    out.attempted += 1
    if not verdict_ok(result):
        v = result.verdicts[0] if result.verdicts else None
        out.fail(f"rep {rep_index}: verdict "
                 f"{(v.problem, v.suspect, v.status) if v else None} "
                 f"disagrees with ground truth {receiver_leaf(result)}")
    fp = point_fingerprint(result, records)
    if out.point_fp is None:
        out.point_fp = fp
    elif fp != out.point_fp:
        out.fail(f"rep {rep_index}: simulated outputs differ from rep 0")
    if tracer is not None:
        stats, counts = tracer.take("point")
        _scale(stats, rep.point_s / rep.wall["point_s"])
        rep.layer_point = _point_layers(stats, counts, result, records)
    return rep, result


def _time_phases(scenario: Any, clock: SpeedClock
                 ) -> tuple[dict[str, float], dict[str, float]]:
    """Time each phase ``execute()`` calls, after a full collection.

    Returns the scaled and the wall time of each phase, filled in as
    ``execute()`` runs; each phase is its own :class:`SpeedClock`
    section.

    The collection runs outside the timing, so the garbage one phase
    leaves is not billed to whichever later phase happens to trigger
    the next full collection: phase times stop depending on where the
    collector's thresholds fall.  Each phase still pays the young
    collections its own allocations trigger.
    """
    timings: dict[str, float] = {}
    wall: dict[str, float] = {}
    for phase in ("build", "run", "collect", "diagnose"):
        def timed(fn: Any = getattr(scenario, phase),
                  phase: str = phase) -> Any:
            gc.collect()
            clock.mark()
            t0 = clock.now()
            try:
                return fn()
            finally:
                wall[phase] = clock.now() - t0
                timings[phase] = wall[phase] * clock.factor()
        setattr(scenario, phase, timed)
    return timings, wall


def _query_segment(out: RunResult, rep: Rep, result: ScenarioResult,
                   queries: list[tuple[str, EpochRange]], cursor: int,
                   tracer: Optional[Tracer], clock: SpeedClock) -> int:
    """Closed-loop top-k queries against the point just diagnosed.

    The latencies of each :data:`QUERY_CHUNK_S` of the loop share one
    :class:`SpeedClock` section, closed between two queries.
    """
    analyzer = result.deployment.analyzer
    rpc = analyzer.rpc
    n = len(queries)
    gc.collect()
    issued = 0
    chunk: list[float] = []
    wall_s = scaled_s = 0.0

    def close_chunk() -> None:
        nonlocal wall_s, scaled_s
        scale = clock.factor()
        rep.latencies.extend(x * scale for x in chunk)
        wall_s += sum(chunk)
        scaled_s += sum(chunk) * scale
        chunk.clear()

    clock.mark()
    chunk_started = clock.now()
    try:
        if tracer is not None:
            tracer.context("query")
            tracer.install()
        while issued < out.workload.queries:
            index = cursor % n
            switch, epochs = queries[index]
            calls = rpc.calls
            t0 = clock.now()
            # looked up on the module each time: a traced repetition
            # patches it there
            top, bd = pathdump.top_k_with_switchpointer(
                analyzer, TOP_K, switch=switch, epochs=epochs,
                level=POINTER_LEVEL)
            chunk.append(clock.now() - t0)
            # one pointer pull, then one call per contacted server
            servers = rpc.calls - calls - 1
            key = answer_key(top, bd)
            seen = out.answers.get(index)
            if seen is None:
                out.answers[index] = (servers, bd.total, key)
            elif seen[2] != key or seen[0] != servers:
                out.fail(f"query {index} ({switch}, {epochs}) answered "
                         f"differently than on its first issue")
            cursor += 1
            issued += 1
            if clock.now() - chunk_started >= QUERY_CHUNK_S:
                close_chunk()
                chunk_started = clock.now()
        close_chunk()
    finally:
        if tracer is not None:
            tracer.uninstall()
    out.attempted += issued
    if tracer is not None:
        stats, counts = tracer.take("query")
        _scale(stats, scaled_s / wall_s)
        _merge(out.query_stats, stats)
        for k, v in counts.items():
            out.query_counts[k] = out.query_counts.get(k, 0.0) + v
        out.traced_queries += issued
    return cursor


def _oracle_check(out: RunResult, result: ScenarioResult,
                  queries: list[tuple[str, EpochRange]], seed: int,
                  rep_index: int) -> None:
    """Compare a seed-drawn sample of answers with PathDump, which
    asks every server (untimed)."""
    oracle = pathdump.PathDumpAnalyzer(result.deployment.host_agents)
    rng = random.Random(seed * 1_000_003 + rep_index)
    answered = sorted(out.answers)
    for index in rng.sample(answered,
                            min(out.workload.oracle_sample, len(answered))):
        switch, epochs = queries[index]
        expect, _bd = oracle.top_k_flows(TOP_K, switch=switch,
                                         epochs=epochs)
        got = out.answers[index][2][0]
        if got != tuple((s.flow, s.bytes, s.packets) for s in expect):
            out.fail(f"query {index} ({switch}, {epochs}): top-{TOP_K} "
                     f"differs from the all-servers oracle")


def _scale(stats: dict[str, Stat], scale: float) -> None:
    """Scale traced times to reference speed, in place."""
    for st in stats.values():
        st.total *= scale
        st.self_s *= scale


def _merge(into: dict[str, Stat], stats: dict[str, Stat]) -> None:
    for name, st in stats.items():
        acc = into.setdefault(name, Stat())
        acc.calls += st.calls
        acc.total += st.total
        acc.self_s += st.self_s


# -- metrics ---------------------------------------------------------------

#: layers whose self time is reported per point / per query
POINT_LAYERS = ("scenario", "deployment", "simnet", "networkx", "core",
                "switchd", "hostd", "directory", "analyzer", "rpc")
QUERY_LAYERS = ("baselines", "analyzer", "switchd", "directory", "hostd",
                "rpc")


def _self_by_layer(stats: dict[str, Stat],
                   layers: tuple[str, ...]) -> dict[str, float]:
    totals = dict.fromkeys(layers, 0.0)
    for name, st in stats.items():
        layer = name.split(".")[0]
        if layer in totals:
            totals[layer] += st.self_s
    return totals


def _point_layers(stats: dict[str, Stat], counts: dict[str, float],
                  result: ScenarioResult,
                  records: dict[str, int]) -> dict[str, float]:
    """Per-point layer metrics of one traced repetition."""
    def calls(name: str) -> float:
        return float(stats.get(name, Stat()).calls)

    def total(name: str) -> float:
        return stats.get(name, Stat()).total

    m: dict[str, float] = {
        "deployment.init_s": total("deployment.init"),
        "deployment.agents": counts.get("deployment.agents", 0.0),
        "simnet.build_s": total("simnet.build"),
        "simnet.shortest_paths.calls": calls("simnet.shortest_paths"),
        "simnet.shortest_paths.pairs":
            counts.get("simnet.shortest_paths.pairs", 0.0),
        "simnet.shortest_paths.s": total("simnet.shortest_paths"),
        "networkx.calls": calls("networkx"),
        "networkx.s": total("networkx"),
        "core.mphf_build.calls": calls("core.mphf_build"),
        "core.mphf_build.s": total("core.mphf_build"),
        "core.mphf_lookup.calls": calls("core.mphf_lookup"),
        "core.mphf_lookup.s": total("core.mphf_lookup"),
        "switchd.embed.calls": calls("switchd.embed"),
        "switchd.embed.s": total("switchd.embed"),
        "simnet.events": float(result.network.sim.events_processed),
        "simnet.run.self_s": stats.get("simnet.run", Stat()).self_s,
        "simnet.pkts_forwarded": float(sum(
            st.forwarded for st in result.switch_stats.values())),
        "simnet.queue_drops": float(queue_drops(result)),
        "switchd.slot_update.calls": calls("switchd.slot_update"),
        "switchd.slot_update.s": total("switchd.slot_update"),
        "core.pointer_update.calls": calls("core.pointer_update"),
        "core.pointer_update.s": total("core.pointer_update"),
        "hostd.decode.calls": calls("hostd.decode"),
        "hostd.decode.s": total("hostd.decode"),
        "hostd.records_ingested": float(records["ingested_records"]),
        "analyzer.diagnose.s": total("analyzer.diagnose"),
    }
    for layer, s in _self_by_layer(stats, POINT_LAYERS).items():
        m[f"self.point.{layer}_s"] = s
    return m


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> Optional[float]:
    """Highest of p50..p99.9 with at least ten samples beyond it."""
    best = None
    for p in (50.0, 90.0, 95.0, 99.0, 99.9):
        if n * (1 - p / 100.0) >= 10:
            best = p
    return best


#: unit of every end-to-end metric (``peak_rss_mb`` is added by run.py)
E2E_UNITS = {
    "setup_s": "s", "run_s": "s", "diagnose_s": "s", "point_s": "s",
    "events_per_s": "1/s", "query_p50_ms": "ms", "query_p95_ms": "ms",
    "query_p99_ms": "ms",
    "queries_per_s": "1/s", "query_sim_ms": "ms",
    "servers_per_query": "count", "peak_rss_mb": "MB",
}


def e2e_metrics(out: RunResult, reps: list[Rep]) -> dict[str, float]:
    """End-to-end metrics over the given repetitions."""
    lat = sorted(x for r in reps for x in r.latencies)
    answers = out.answers.values()
    return {
        "setup_s": statistics.median(r.setup_s for r in reps),
        "run_s": statistics.median(r.run_s for r in reps),
        "diagnose_s": statistics.median(r.diagnose_s for r in reps),
        "point_s": statistics.median(r.point_s for r in reps),
        "events_per_s": statistics.median(r.events / r.run_s for r in reps),
        "query_p50_ms": percentile(lat, 50) * 1e3,
        "query_p95_ms": percentile(lat, 95) * 1e3,
        "query_p99_ms": percentile(lat, 99) * 1e3,
        "queries_per_s": len(lat) / sum(lat),
        "query_sim_ms": statistics.median(a[1] for a in answers) * 1e3,
        "servers_per_query": statistics.fmean(a[0] for a in answers),
    }


def _per(name: str, unit: str) -> str:
    return f"s/{unit}" if name.endswith(("_s", ".s")) else f"1/{unit}"


def layer_metrics(out: RunResult) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) of the traced repetitions, plus
    the traced and untraced end-to-end numbers and their ratio."""
    traced = [r for r in out.reps if r.traced]
    plain = [r for r in out.reps if not r.traced]
    m: dict[str, tuple[float, str]] = {}
    for key in traced[0].layer_point:
        m[key] = (statistics.median(r.layer_point[key] for r in traced),
                  _per(key, "point"))
    nq = out.traced_queries
    qs, qc = out.query_stats, out.query_counts

    def per_query(name: str, value: float) -> None:
        m[name] = (value / nq, _per(name, "query"))

    for name in ("hostd.query", "switchd.pull", "directory.decode",
                 "analyzer.hosts_for", "rpc.fanout"):
        st = qs.get(name, Stat())
        per_query(f"{name}.calls", st.calls)
        per_query(f"{name}.s", st.total)
    per_query("analyzer.consult.s", qs.get("analyzer.consult", Stat()).total)
    scanned = qc.get("hostd.query.records_scanned", 0.0)
    rows = qc.get("hostd.query.rows_returned", 0.0)
    per_query("hostd.query.records_scanned", scanned)
    per_query("hostd.query.rows_returned", rows)
    m["hostd.query.useful_ratio"] = (rows / scanned if scanned else 0.0,
                                     "ratio")
    per_query("switchd.pull.snapshots", qc.get("switchd.pull.snapshots", 0.0))
    servers = qc.get("analyzer.consult.servers", 0.0)
    m["analyzer.precision"] = (qc.get("analyzer.consult.useful", 0.0)
                               / servers if servers else 0.0, "ratio")
    per_query("rpc.servers", qc.get("rpc.servers", 0.0))
    for layer, s in _self_by_layer(qs, QUERY_LAYERS).items():
        per_query(f"self.query.{layer}_s", s)
    on, off = e2e_metrics(out, traced), e2e_metrics(out, plain)
    for key in ("setup_s", "run_s", "diagnose_s", "point_s",
                "query_p50_ms"):
        m[f"traced.{key}"] = (on[key], E2E_UNITS[key])
        m[f"untraced.{key}"] = (off[key], E2E_UNITS[key])
    m["trace.overhead_point"] = (on["point_s"] / off["point_s"], "ratio")
    m["trace.overhead_query"] = (on["query_p50_ms"] / off["query_p50_ms"],
                                 "ratio")
    return m
