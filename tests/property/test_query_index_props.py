"""Property-based tests for the per-switch inverted index (§3 filter).

Core claim: for any interleaving of observations and evictions, the
indexed query path — :meth:`FlowRecordStore.flows_through` and the
heap-based :meth:`QueryEngine.top_k_flows` — is observationally
identical to the O(N) linear scan it replaced: same records, same
order, byte-identical summary payloads."""

from hypothesis import given, settings, strategies as st

from repro.core.epoch import EpochRange
from repro.hostd.query import FlowSummary, QueryEngine
from repro.hostd.records import FlowRecordStore
from repro.simnet.packet import FlowKey, PROTO_UDP

SWITCHES = ["S1", "S2", "S3", "S4", "S5"]


def flow_key(i: int) -> FlowKey:
    return FlowKey(f"s{i}", f"d{i}", 1000 + i, 9, PROTO_UDP)


epoch_range = st.tuples(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=30),
).map(lambda t: EpochRange(min(t), max(t)))

# one observation: (flow id, nbytes, switches touched with their ranges)
observation = st.tuples(
    st.integers(min_value=0, max_value=11),
    st.integers(min_value=1, max_value=10_000),
    st.dictionaries(st.sampled_from(SWITCHES), epoch_range,
                    min_size=1, max_size=len(SWITCHES)),
)

observations = st.lists(observation, min_size=1, max_size=80)


def build(ops, max_records=None, store=None):
    """Replay ``ops`` into a store (evictions interleave via the bound)."""
    if store is None:
        store = FlowRecordStore("h", max_records=max_records)
    for i, (fid, nbytes, ranges) in enumerate(ops):
        store.ingest(flow_key(fid), nbytes=nbytes, t=0.001 * i,
                     priority=0, switch_path=sorted(ranges),
                     ranges=ranges, observed_epoch=min(r.lo
                                                       for r in
                                                       ranges.values()))
    return store


def payload_bytes(summaries: list[FlowSummary]) -> list[tuple]:
    """Fully-materialized wire form, for byte-identity comparison."""
    return [s._astuple() for s in summaries]


@settings(max_examples=80, deadline=None)
@given(ops=observations,
       max_records=st.sampled_from([None, 3, 6]),
       window=st.one_of(st.none(), epoch_range))
def test_flows_through_matches_linear_scan(ops, max_records, window):
    store = build(ops, max_records=max_records)
    for sw in SWITCHES:
        indexed = store.flows_through(sw, window)
        linear = store.linear_flows_through(sw, window)
        assert len(indexed) == len(linear)
        # same records, as the same objects, in the same order
        assert all(a is b for a, b in zip(indexed, linear))


@settings(max_examples=60, deadline=None)
@given(ops=observations,
       max_records=st.sampled_from([None, 4]),
       window=st.one_of(st.none(), epoch_range),
       k=st.integers(min_value=1, max_value=8))
def test_top_k_matches_full_sort_payload(ops, max_records, window, k):
    store = build(ops, max_records=max_records)
    engine = QueryEngine(store)
    for sw in SWITCHES:
        res = engine.top_k_flows(k, switch=sw, epochs=window)
        reference = sorted(store.linear_flows_through(sw, window),
                           key=lambda r: (-r.bytes, r.flow))[:k]
        expected = [FlowSummary.of(r) for r in reference]
        assert payload_bytes(res.payload) == payload_bytes(expected)


@settings(max_examples=60, deadline=None)
@given(ops=observations, window=st.one_of(st.none(), epoch_range))
def test_flows_matching_payload_identical(ops, window):
    store = build(ops)
    engine = QueryEngine(store)
    for sw in SWITCHES:
        res = engine.flows_matching(sw, window)
        expected = [FlowSummary.of(r)
                    for r in store.linear_flows_through(sw, window)]
        assert payload_bytes(res.payload) == payload_bytes(expected)


@settings(max_examples=60, deadline=None)
@given(ops=observations, max_records=st.integers(min_value=1, max_value=5))
def test_index_never_resurrects_evicted_records(ops, max_records):
    store = build(ops, max_records=max_records)
    assert len(store) <= max_records
    live = set(id(r) for r in store)
    for sw in SWITCHES:
        for rec in store.flows_through(sw):
            assert id(rec) in live


# -- spill/reload index consistency ---------------------------------------

@settings(max_examples=40, deadline=None)
@given(ops=observations,
       max_records=st.sampled_from([None, 4]),
       reload_bound=st.sampled_from([None, 3]))
def test_spill_reload_keeps_index_consistent(
        tmp_path_factory, ops, max_records, reload_bound):
    """flush → load_from_disk (with or without a reload bound) must
    leave the per-switch inverted index exactly describing the live
    table — reloads and evictions never resurrect or strand records."""
    path = tmp_path_factory.mktemp("spill") / "records.jsonl"
    store = build(ops, store=FlowRecordStore(
        "h", spill_path=path, max_records=max_records))
    store.flush_to_disk()
    again = FlowRecordStore.load_from_disk(
        "h", path, max_records=reload_bound)
    if reload_bound is not None:
        assert len(again) <= reload_bound
    elif max_records is None:
        # no mid-run eviction spills: the file is exactly the table
        assert [r.flow for r in again] == [r.flow for r in store]
    else:
        # eviction victims were spilled before the final flush; the
        # reload resurrects them (flat-store semantics), never loses
        # a live record
        reloaded = {r.flow for r in again}
        assert {r.flow for r in store} <= reloaded
    live = {id(r) for r in again}
    for sw in SWITCHES:
        indexed = again.flows_through(sw)
        linear = again.linear_flows_through(sw)
        assert [r.flow for r in indexed] == [r.flow for r in linear]
        for rec in indexed:
            assert id(rec) in live