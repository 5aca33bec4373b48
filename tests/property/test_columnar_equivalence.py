"""Property tests: the record store is observably identical to a model.

:class:`FlowRecordStore` keeps a per-switch inverted index, a sorted
per-switch cache, deferred eviction and a JSON-lines spill.  The model
below keeps none of that: a dict of per-flow bytes, packets, first/last
seen and epoch ranges, answered by linear scans (the
:meth:`FlowRecordStore.linear_flows_through` reference, re-derived).
These properties drive the store and the model through the *same*
arbitrary interleaving of ingests, disk flushes, crash losses and
spill-file reloads — with and without an eviction bound, with ties on
``last_seen`` — and require every observable to agree:

* ``scan_through`` / ``flows_matching`` / ``top_k_flows`` payloads,
  in order, for unwindowed, windowed and ``since_seq`` delta variants;
* ``records_scanned`` (it feeds the RPC latency model) and the
  ``as_of_seq`` watermark;
* the ``peak_records`` / ``spilled`` / ``evicted`` / ``ingested``
  counters and the table length;
* the spill file, record for record.
"""

import heapq
import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.epoch import EpochRange
from repro.hostd.query import FlowSummary, QueryEngine
from repro.hostd.records import FlowRecordStore
from repro.simnet.packet import FlowKey, PROTO_UDP

SWITCH_SETS = (("S1",), ("S2",), ("S1", "S2"), ("S2", "S3"))


def flow_key(i: int) -> FlowKey:
    return FlowKey(f"s{i}", "dst", 1000 + i, 9, PROTO_UDP)


# -- the model ---------------------------------------------------------------

@dataclass
class Row:
    flow: FlowKey
    seq: int
    bytes: int = 0
    packets: int = 0
    priority: int = 0
    first_seen: Optional[float] = None
    last_seen: Optional[float] = None
    switch_path: list = field(default_factory=list)
    ranges: dict = field(default_factory=dict)      # switch -> (lo, hi)
    bytes_by_epoch: dict = field(default_factory=dict)
    update_seq: int = 0

    def doc(self) -> dict:
        """The spill-file document of this row."""
        return {"flow": list(self.flow), "switch_path": self.switch_path,
                "epoch_ranges": {sw: list(r)
                                 for sw, r in self.ranges.items()},
                "bytes_by_epoch": {str(e): b
                                   for e, b in self.bytes_by_epoch.items()},
                "packets": self.packets, "bytes": self.bytes,
                "priority": self.priority, "first_seen": self.first_seen,
                "last_seen": self.last_seen}


class Model:
    """The store's contract as plain dicts and linear scans."""

    def __init__(self, spill: Path, bound: Optional[int]):
        self.spill = spill
        self.bound = bound
        self.rows: dict[FlowKey, Row] = {}
        self.next_seq = 0
        self.peak = self.spilled = self.evicted = self.ingested = 0

    def _new_row(self, flow: FlowKey) -> Row:
        row = self.rows[flow] = Row(flow, self.next_seq)
        self.next_seq += 1
        return row

    def _evict(self, *, spill: bool) -> None:
        if self.bound is None or len(self.rows) <= self.bound:
            return
        excess = len(self.rows) - self.bound
        # a row not yet observed is the one being created: never a victim
        victims = heapq.nsmallest(
            excess, self.rows.values(),
            key=lambda r: (r.last_seen if r.last_seen is not None
                           else float("inf"), r.seq))
        if spill:
            self._append(victims)
        for row in victims:
            del self.rows[row.flow]
        self.evicted += len(victims)

    def _append(self, rows) -> None:
        with self.spill.open("a", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row.doc()) + "\n")
        self.spilled += len(rows)

    def ingest(self, flow, nbytes, t, priority, switches, lo) -> None:
        self.ingested += 1
        row = self.rows.get(flow)
        if row is None:
            row = self._new_row(flow)
            self.peak = max(self.peak, len(self.rows))
            self._evict(spill=True)
        row.update_seq = self.ingested
        row.packets += 1
        row.bytes += nbytes
        row.priority = priority
        if row.first_seen is None:
            row.first_seen = t
        row.last_seen = t
        row.switch_path = list(switches)
        for sw in switches:
            old = row.ranges.get(sw, (lo, lo + 1))
            row.ranges[sw] = (min(old[0], lo), max(old[1], lo + 1))
        row.bytes_by_epoch[lo] = row.bytes_by_epoch.get(lo, 0) + nbytes

    def flush(self) -> None:
        self._append(self.ordered())

    def crash(self) -> None:
        self.rows.clear()

    def reload(self) -> "Model":
        """The store rebuilt from the spill file (fresh counters)."""
        model = Model(self.spill, self.bound)
        for line in self.spill.read_text(encoding="utf-8").splitlines():
            doc = json.loads(line)
            flow = FlowKey(*doc["flow"])
            prev = model.rows.get(flow)
            row = model._new_row(flow) if prev is None else prev
            # a later line supersedes an earlier one, keeping its place
            model.rows[flow] = Row(
                flow, row.seq, doc["bytes"], doc["packets"],
                doc["priority"], doc["first_seen"], doc["last_seen"],
                list(doc["switch_path"]),
                {sw: tuple(r) for sw, r in doc["epoch_ranges"].items()},
                {int(e): b for e, b in doc["bytes_by_epoch"].items()})
        model.peak = len(model.rows)
        model._evict(spill=False)
        return model

    def ordered(self) -> list[Row]:
        return sorted(self.rows.values(), key=lambda r: r.seq)

    def scan(self, switch, epochs, since=None):
        """(matches in creation order, records the index would inspect)."""
        at = [r for r in self.ordered() if switch in r.ranges]
        if epochs is None:
            inspected = len(at)
        else:
            # the index skips rows whose lo lies past the window
            at = [r for r in at if r.ranges[switch][0] <= epochs.hi]
            inspected = len(at)
            at = [r for r in at if r.ranges[switch][1] >= epochs.lo]
        if since is not None:
            at = [r for r in at if r.update_seq > since]
        return at, inspected


# -- interleaving scripts ----------------------------------------------------

OP_KINDS = ("ingest",) * 6 + ("flush", "crash", "reload")


@st.composite
def interleaving(draw, *, with_reload=True):
    """Ops (ingest/flush/crash/reload) + delta-query cut positions."""
    kinds = OP_KINDS if with_reload else OP_KINDS[:-1]
    n = draw(st.integers(min_value=2, max_value=40))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(kinds))
        if kind == "ingest":
            ops.append(("ingest",
                        draw(st.integers(min_value=0, max_value=9)),
                        draw(st.sampled_from(SWITCH_SETS)),
                        draw(st.integers(min_value=0, max_value=5))))
        else:
            ops.append((kind,))
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=n),
                                min_size=0, max_size=3)))
    return ops, cuts


def _ingest_args(op, idx):
    _, i, switches, lo = op
    # pairs of consecutive ops share a timestamp: eviction must break
    # last_seen ties by creation order
    return (flow_key(i), 100 * (i + 1), 0.001 * (idx // 2 + 1), i % 2,
            switches, lo)


def _apply_store(store, op, spill, bound, idx):
    """One script op on the store; returns the (possibly new) store."""
    if op[0] == "ingest":
        flow, nbytes, t, prio, switches, lo = _ingest_args(op, idx)
        store.ingest(flow, nbytes=nbytes, t=t, priority=prio,
                     switch_path=list(switches),
                     ranges={sw: EpochRange(lo, lo + 1)
                             for sw in switches},
                     observed_epoch=lo)
    elif op[0] == "flush":
        store.flush_to_disk()
    elif op[0] == "crash":
        store.drop_all()
    elif op[0] == "reload" and spill.exists():
        store = FlowRecordStore.load_from_disk("h", spill,
                                               max_records=bound)
    return store


def _apply_model(model, op, idx):
    if op[0] == "ingest":
        model.ingest(*_ingest_args(op, idx))
    elif op[0] == "flush":
        model.flush()
    elif op[0] == "crash":
        model.crash()
    elif op[0] == "reload" and model.spill.exists():
        model = model.reload()
    return model


# -- observations ------------------------------------------------------------

def _snap(rec):
    return (rec.flow, rec.bytes, rec.packets, rec.priority,
            rec.first_seen, rec.last_seen, tuple(rec.switch_path),
            {sw: (r.lo, r.hi) for sw, r in rec.epoch_ranges.items()},
            dict(rec.bytes_by_epoch))


def _row_snap(row):
    return (row.flow, row.bytes, row.packets, row.priority,
            row.first_seen, row.last_seen, tuple(row.switch_path),
            dict(row.ranges), dict(row.bytes_by_epoch))


def _summary(row):
    return FlowSummary(row.flow, row.bytes, row.packets, row.priority,
                       list(row.switch_path), dict(row.ranges),
                       dict(row.bytes_by_epoch))


def _wire(summaries):
    """Summaries in wire form, pinned now (they materialize lazily)."""
    return [s._astuple() for s in summaries]


def _top(rows, k):
    return heapq.nsmallest(k, rows, key=lambda r: (-r.bytes, r.flow))


WINDOWS = (None, EpochRange(1, 3), EpochRange(2, 4))
TOPK_WINDOW = EpochRange(0, 2)


def _observe_store(store, since):
    """The full query battery against the store's current state."""
    eng = QueryEngine(store)
    obs = []
    for switch in ("S1", "S2", "S3"):
        for epochs in WINDOWS:
            recs, scanned = store.scan_through(switch, epochs)
            assert recs == store.linear_flows_through(switch, epochs)
            obs.append(("scan", switch, epochs,
                        [_snap(r) for r in recs], scanned))
        res = eng.flows_matching(switch, since_seq=since)
        obs.append(("delta", switch, _wire(res.payload),
                    res.records_scanned, res.as_of_seq))
        top = eng.top_k_flows(3, switch=switch)
        obs.append(("topk", switch, _wire(top.payload),
                    top.records_scanned))
        win = eng.top_k_flows(2, switch=switch, epochs=TOPK_WINDOW)
        obs.append(("topk-win", switch, _wire(win.payload),
                    win.records_scanned))
    obs.append(("counters", len(store), store.peak_records,
                store.spilled, store.evicted, store.ingested))
    return obs, store.ingested


def _observe_model(model, since):
    """The same battery, answered by the model's linear scans."""
    obs = []
    for switch in ("S1", "S2", "S3"):
        for epochs in WINDOWS:
            rows, scanned = model.scan(switch, epochs)
            obs.append(("scan", switch, epochs,
                        [_row_snap(r) for r in rows], scanned))
        rows, scanned = model.scan(switch, None, since)
        obs.append(("delta", switch, _wire(map(_summary, rows)),
                    scanned, model.ingested))
        rows, scanned = model.scan(switch, None)
        obs.append(("topk", switch, _wire(map(_summary, _top(rows, 3))),
                    scanned))
        rows, scanned = model.scan(switch, TOPK_WINDOW)
        obs.append(("topk-win", switch,
                    _wire(map(_summary, _top(rows, 2))), scanned))
    obs.append(("counters", len(model.rows), model.peak, model.spilled,
                model.evicted, model.ingested))
    return obs, model.ingested


def _spilled_docs(path):
    if not path.exists():
        return []
    return [json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()]


def _run(ops, cuts, tmpdir, bound):
    """Drive the store and the model through one script."""
    store_spill = Path(tmpdir) / "store.jsonl"
    model_spill = Path(tmpdir) / "model.jsonl"
    store = FlowRecordStore("h", spill_path=store_spill, max_records=bound)
    model = Model(model_spill, bound)
    got, want = [], []
    store_since = model_since = None
    cutset = set(cuts)
    for idx, op in enumerate(ops):
        if idx in cutset:
            round_obs, store_since = _observe_store(store, store_since)
            got.append(round_obs)
            round_obs, model_since = _observe_model(model, model_since)
            want.append(round_obs)
        store = _apply_store(store, op, store_spill, bound, idx)
        model = _apply_model(model, op, idx)
    got.append(_observe_store(store, store_since)[0])
    want.append(_observe_model(model, model_since)[0])
    return (got, _spilled_docs(store_spill)), (want,
                                               _spilled_docs(model_spill))


# -- the properties ----------------------------------------------------------

@given(script=interleaving())
@settings(max_examples=40, deadline=None)
def test_flat_store_matches_oracle_unbounded(script):
    """No memory bound: every query, counter and spilled record agrees
    with the model, across flushes, crashes and reloads."""
    ops, cuts = script
    with tempfile.TemporaryDirectory() as tmp:
        got, want = _run(ops, cuts, tmp, None)
    assert got == want


@given(script=interleaving())
@settings(max_examples=40, deadline=None)
def test_flat_store_matches_oracle_under_eviction(script):
    """With a memory bound the store evicts the model's victims, spills
    the same records in the same order, and reloads to the same
    table."""
    ops, cuts = script
    with tempfile.TemporaryDirectory() as tmp:
        got, want = _run(ops, cuts, tmp, 4)
    assert got == want


@given(script=interleaving(with_reload=False),
       bound=st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_flat_store_matches_oracle_across_bounds(script, bound):
    """Every bound from one record up: victim choice, including
    last_seen ties, matches the model's stalest-first rule."""
    ops, cuts = script
    with tempfile.TemporaryDirectory() as tmp:
        got, want = _run(ops, cuts, tmp, bound)
    assert got == want


class _ModelQueries:
    """The model behind the ``flows_matching`` surface the delta tests
    use, so the contract tests below also validate the oracle."""

    def __init__(self, model):
        self.model = model

    def ingest(self, op, idx):
        self.model.ingest(*_ingest_args(op, idx))

    def flows_matching(self, switch, since_seq=None):
        rows, _ = self.model.scan(switch, None, since_seq)
        return [_summary(r) for r in rows], self.model.ingested


class _StoreQueries:
    def __init__(self, store):
        self.store = store

    def ingest(self, op, idx):
        _apply_store(self.store, op, None, None, idx)

    def flows_matching(self, switch, since_seq=None):
        res = QueryEngine(self.store).flows_matching(switch,
                                                     since_seq=since_seq)
        return res.payload, res.as_of_seq


def _queries(layout, tmp):
    if layout == "flat":
        return _StoreQueries(FlowRecordStore("h"))
    return _ModelQueries(Model(Path(tmp) / "m.jsonl", None))


@pytest.mark.parametrize("layout", ["flat", "oracle"])
def test_since_seq_excludes_older_records(layout):
    """The delta-query watermark contract, on the store and the model."""
    with tempfile.TemporaryDirectory() as tmp:
        q = _queries(layout, tmp)
        q.ingest(("ingest", 0, ("S1",), 0), 0)
        _, seq = q.flows_matching("S1")
        q.ingest(("ingest", 1, ("S1",), 0), 2)
        payload, _ = q.flows_matching("S1", since_seq=seq)
        assert [s.flow for s in payload] == [flow_key(1)]


@pytest.mark.parametrize("layout", ["flat", "oracle"])
def test_updated_record_reappears_in_the_next_delta(layout):
    """An update to an already-reported flow crosses the watermark."""
    with tempfile.TemporaryDirectory() as tmp:
        q = _queries(layout, tmp)
        q.ingest(("ingest", 0, ("S1",), 0), 0)
        _, seq = q.flows_matching("S1")
        q.ingest(("ingest", 0, ("S1",), 3), 2)
        payload, _ = q.flows_matching("S1", since_seq=seq)
        assert [s.flow for s in payload] == [flow_key(0)]
        assert payload[0].packets == 2
