"""Agent-crash fault: kill (and optionally restart) telemetry state.

Two blast radii, selected by ``shard``:

* ``shard < 0`` (default): the whole host agent dies — sniffing stops,
  the in-memory record table and any batched-ingest buffer are lost.
  ``stop`` restarts the agent with an empty table (the real daemon's
  supervisor restart); telemetry from before the crash is gone, which
  is exactly the evidence loss a mid-diagnosis crash inflicts.
* ``0 <= shard < N_PARTITIONS``: one source partition of the record
  table loses its rows (a backing-store partition failure) — the
  records whose ``crc32(flow.src) % N_PARTITIONS == shard``.  Nothing
  is spilled; the agent keeps sniffing and repopulates the partition
  from post-crash traffic.
"""

from __future__ import annotations

import zlib
from typing import Any

from .base import Fault, FaultContext, FaultError, FaultParam, FaultSpec, register_fault

#: source partitions a partial crash picks one of
N_PARTITIONS = 8


def partition_of(src: str) -> int:
    """The record-table partition a flow from host ``src`` lives in."""
    return zlib.crc32(src.encode("utf-8")) % N_PARTITIONS


@register_fault
class AgentCrashFault(Fault):
    """Crash a host agent (or one partition of its record table) mid-run."""

    spec = FaultSpec(
        name="agent-crash",
        summary="kill a host agent (or one record-table partition) mid-run; "
        "stop= restarts it with an empty table",
        degrades="host evidence: every record the host held vanishes; "
        "diagnoses that needed its telemetry lose their witness",
        diagnosed_by="(none — a stressor; the analyzer sees a host with "
        "no matching records)",
        params={
            "host": FaultParam("", "the host whose agent crashes"),
            "shard": FaultParam(-1, "source partition to lose, 0-7 (-1 = whole agent)"),
        },
    )

    def __init__(self, **params: Any):
        super().__init__(**params)
        self.records_lost = 0

    def _agent(self, ctx: FaultContext) -> Any:
        deploy = ctx.require_deployment(self)
        name = self.p["host"]
        try:
            return deploy.host_agents[name]
        except KeyError:
            raise FaultError(
                f"agent-crash: unknown host {name!r}; known: "
                f"{', '.join(sorted(deploy.host_agents))}"
            ) from None

    def schedule(self, ctx: FaultContext) -> None:
        self._agent(ctx)
        shard = self.p["shard"]
        if not -1 <= shard < N_PARTITIONS:
            raise FaultError(
                f"agent-crash: shard must be in [-1, {N_PARTITIONS}), got {shard}"
            )
        super().schedule(ctx)

    def inject(self, ctx: FaultContext) -> None:
        agent = self._agent(ctx)
        shard = self.p["shard"]
        if shard >= 0:
            store = agent.store
            victims = [rec for rec in store if partition_of(rec.flow.src) == shard]
            store._drop_records(victims, spill=False)
            self.records_lost = len(victims)
        else:
            self.records_lost = agent.crash()

    def heal(self, ctx: FaultContext) -> None:
        if self.p["shard"] < 0:
            self._agent(ctx).restart()
