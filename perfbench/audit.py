#!/usr/bin/env python3
"""Reproduce the two ground-truth disagreements the benchmark steers around.

Usage (from the repository root)::

    python3 perfbench/audit.py [--seed 1]

1. **Incast verdict under uplink saturation.**  ``incast`` at
   ``hosts=256, bg_flows=20000`` (4 leaves, 2 spines): the mice
   population and the burst saturate the senders' leaf uplinks, so the
   burst is dropped there and the receiver leaf's downlink drops
   nothing.  The analyzer still reports ``incast`` at the receiver's
   leaf with status ``complete``.  ``mice-20k`` therefore runs the same
   20k flows on a 1024-host fabric (4 spines), where the downlink does
   overflow.
2. **Level-1 Fig 12 queries.**  ``top_k_with_switchpointer`` decodes the
   switch pointer for the query window only, while host records carry
   epoch ranges widened by the ε/Δ extrapolation slack.  Hosts whose
   records meet the window only through that slack are not contacted,
   so the top-k answer differs from the all-servers PathDump answer.
   The benchmark queries at pointer level 2, whose sets cover the whole
   run, and matches the oracle there.

Prints what it finds; exits 1 while either disagreement reproduces and
0 once both are gone.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def incast_under_saturation(seed: int) -> bool:
    from repro.core.rng import seed_run
    from repro.scenarios import REGISTRY
    from workloads import queue_drops, receiver_leaf, verdict_ok

    seed_run(seed)
    result = REGISTRY.get("incast")(hosts=256, bg_flows=20000).execute()
    receiver, leaf = receiver_leaf(result)
    v = result.verdicts[0] if result.verdicts else None
    net = result.network
    downlink = net.link_between(leaf, receiver).iface_of(net.switches[leaf])
    print(f"incast hosts=256 bg_flows=20000 seed {seed}: verdict "
          f"{(v.problem, v.suspect, v.status) if v else None}; "
          f"{leaf}->{receiver} downlink drops "
          f"{downlink.queue.stats.dropped}, all queue drops "
          f"{queue_drops(result)}")
    bad = not verdict_ok(result)
    print(f"  {'DISAGREES with' if bad else 'matches'} ground truth")
    return bad


def level1_queries(seed: int, sample: int = 100) -> bool:
    from repro.baselines.pathdump import (PathDumpAnalyzer,
                                          top_k_with_switchpointer)
    from repro.core.rng import seed_run
    from repro.scenarios import REGISTRY
    from workloads import TOP_K, WORKLOADS, draw_queries

    knobs = WORKLOADS["topk-1k"].knobs
    seed_run(seed)
    result = REGISTRY.get("incast")(**knobs).execute()
    analyzer = result.deployment.analyzer
    oracle = PathDumpAnalyzer(result.deployment.host_agents)
    queries = draw_queries(result, seed, 5)
    picked = random.Random(seed).sample(queries, min(sample, len(queries)))
    differ = 0
    for switch, epochs in picked:
        got, _ = top_k_with_switchpointer(analyzer, TOP_K, switch=switch,
                                          epochs=epochs, level=1)
        want, _ = oracle.top_k_flows(TOP_K, switch=switch, epochs=epochs)
        differ += [(s.flow, s.bytes) for s in got] != \
            [(s.flow, s.bytes) for s in want]
    print(f"level-1 top-{TOP_K} queries on topk-1k's fabric, seed {seed}: "
          f"{differ}/{len(picked)} differ from the all-servers oracle")
    return differ > 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src")]
    found = [incast_under_saturation(args.seed), level1_queries(args.seed)]
    return 1 if any(found) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
