"""Host ingest-path benchmark: the batched sniffer flush.

Builds the incast-scale fabric shape at hosts=4096 (64 leaves x 16
spines x 64 hosts/leaf), prepares 2000 pinned incast flows to one
victim host, and replays 100k tagged packets through the victim's
:class:`HostAgent` sniffer with ``ingest_batch=2048``.  Every 2048
packets :meth:`HostAgent.flush_ingest` hands the buffer to
:meth:`TelemetryDecoder.flush_batch`, which decodes each packet into the
record store with one deferred eviction check per batch — the ingest
boundary every batched deployment runs.

Asserts the batched agent ends bit-identical to an unbatched one (same
spill-format JSON for every row, in the same order) and emits
``ingest_s`` for the committed baseline
(``benchmarks/baselines/ingest.json``)."""

import random
import time

import pytest

from repro.core.epoch import EpochClock, EpochRangeEstimator
from repro.core.headers import VlanDoubleTag
from repro.hostd.agent import HostAgent
from repro.simnet.packet import FlowKey, PROTO_UDP, Packet
from repro.simnet.topology import build_leaf_spine
from repro.switchd.cherrypick import CherryPickPlanner

from benchmarks.reporting import emit

# the incast-scale sweep's hosts=4096 fabric shape
N_LEAVES, N_SPINES, PER_LEAF = 64, 16, 64
N_FLOWS = 2000
N_PACKETS = 100_000
BATCH = 2048
ALPHA_MS = 10
ROUNDS = 2


def prepare():
    """Fabric, pinned incast flows, and the pre-tagged packet trace."""
    net = build_leaf_spine(N_LEAVES, N_SPINES, PER_LEAF)
    planner = CherryPickPlanner(net)
    clock = EpochClock(ALPHA_MS)
    est = EpochRangeEstimator(alpha_ms=ALPHA_MS, epsilon_ms=10,
                              delta_ms=20)
    hosts = sorted(net.hosts)
    victim = hosts[0]
    srcs = [h for h in hosts if h != victim]
    flows, tags = [], []
    for i in range(N_FLOWS):
        src = srcs[i % len(srcs)]
        path = net.shortest_paths(src, victim)[0]
        for a, b in zip(path, path[1:]):
            if a not in net.switches:
                continue  # pinning hop must be a switch
            link = net.link_between(a, b)
            if planner.pins_path(src, victim, link):
                flows.append(FlowKey(src, victim, 1000 + i, 80,
                                     PROTO_UDP))
                tags.append(link.vlan_id)
                break
    assert len(flows) == N_FLOWS
    rng = random.Random(1)
    pkts = []
    for j in range(N_PACKETS):
        i = min(int(rng.expovariate(1 / 80)), N_FLOWS - 1)
        t = j * 1e-5
        pkts.append((Packet(flow=flows[i], size=1000, priority=0,
                            telemetry=VlanDoubleTag.embed(
                                tags[i], clock.epoch_of(t))), t))
    return net.hosts[victim], clock, planner, est, pkts


def replay(host, clock, planner, est, pkts, batch):
    """Feed the trace to a fresh agent's sniffer; (seconds, agent)."""
    host.sniffers.clear()
    agent = HostAgent(host, clock=clock, planner=planner, estimator=est,
                      ingest_batch=batch)
    sniff = host.sniffers[0]
    start = time.perf_counter()
    for pkt, t in pkts:
        sniff(host, pkt, t)
    agent.flush_ingest()
    elapsed = time.perf_counter() - start
    assert agent.decoder.decoded == N_PACKETS
    assert agent.store.ingested == N_PACKETS
    return elapsed, agent


def run_bench():
    host, clock, planner, est, pkts = prepare()
    ingest_s, batched = min(
        (replay(host, clock, planner, est, pkts, BATCH)
         for _ in range(ROUNDS)), key=lambda x: x[0])
    _, unbatched = replay(host, clock, planner, est, pkts, 1)
    return ingest_s, batched, unbatched


@pytest.mark.benchmark(group="ingest")
def test_batched_ingest(benchmark):
    ingest_s, batched, unbatched = benchmark.pedantic(
        run_bench, rounds=1, iterations=1)
    rps = N_PACKETS / ingest_s
    emit("ingest", [
        f"hosts: {N_LEAVES * PER_LEAF}   flows: {N_FLOWS}   "
        f"packets: {N_PACKETS}   ingest batch: {BATCH}",
        f"batched flush: {ingest_s * 1e3:8.1f} ms   {rps:10,.0f} rec/s",
        "(HostAgent.flush_ingest -> TelemetryDecoder.flush_batch: "
        "per-packet decode, one eviction check per batch)"],
        data={
            "hosts": N_LEAVES * PER_LEAF,
            "flows": N_FLOWS,
            "packets": N_PACKETS,
            "batch": BATCH,
            "ingest_s": round(ingest_s, 4),
            "ingest_records_per_s": round(rps),
        })

    # batching defers work, it must not change a row (the exponential
    # flow draw concentrates the trace on the heaviest few hundred of
    # the 2000 prepared flows, as an incast's tail does)
    assert len(batched.store) == len(unbatched.store) > 0
    assert ([r.to_json() for r in batched.store]
            == [r.to_json() for r in unbatched.store])
