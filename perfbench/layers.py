"""Probe table of the traced run and the per-layer metrics built from it.

``install`` wraps the public entry points of each ``repro`` layer with the
tracer; ``PER_LAYER`` lists every per-layer metric with its unit, and
``layer_metrics`` computes them from the tracer's aggregates, its counters
and the exact counts the workload recorded for the traced round.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Tuple

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("topology.output_port.calls", "count", "lower"),
    ("topology.output_port.self_s", "s", "lower"),
    ("topology.route.calls", "count", "lower"),
    ("topology.route.self_s", "s", "lower"),
    ("noc.router_step.calls", "count", "lower"),
    ("noc.router_step.self_s", "s", "lower"),
    ("noc.nic_step.calls", "count", "lower"),
    ("noc.nic_step.self_s", "s", "lower"),
    ("noc.flits_ejected", "count", "higher"),
    ("noc.retransmissions", "count", "lower"),
    ("sim.stepped_cycles", "count", "lower"),
    ("sim.skipped_cycles", "count", "higher"),
    ("sim.skip_ratio", "ratio", "higher"),
    ("sim.us_per_stepped_cycle", "us", "lower"),
    ("sim.next_activity.calls", "count", "lower"),
    ("sim.next_activity.self_s", "s", "lower"),
    ("manycore.step.self_s", "s", "lower"),
    ("manycore.memory_step.self_s", "s", "lower"),
    ("faults.transmit.calls", "count", "lower"),
    ("faults.transmit.self_s", "s", "lower"),
    ("faults.corrupted", "count", "lower"),
    ("faults.lost", "count", "lower"),
    ("faults.failed_trials", "count", "lower"),
    ("analysis.vector.calls", "count", "lower"),
    ("analysis.vector.self_s", "s", "lower"),
    ("analysis.scalar.calls", "count", "lower"),
    ("analysis.scalar.self_s", "s", "lower"),
    ("analysis.holistic.calls", "count", "lower"),
    ("analysis.holistic.self_s", "s", "lower"),
    ("analysis.trajectory.calls", "count", "lower"),
    ("analysis.trajectory.self_s", "s", "lower"),
    ("core.flowset.self_s", "s", "lower"),
    ("core.weights.self_s", "s", "lower"),
    ("api.config_hash.calls", "count", "lower"),
    ("api.config_hash.self_s", "s", "lower"),
    ("api.execute.calls", "count", "lower"),
    ("api.execute.self_s", "s", "lower"),
    ("service.store_put.calls", "count", "lower"),
    ("service.store_put.self_s", "s", "lower"),
    ("service.store_put.bytes", "bytes", "lower"),
    ("service.store_get.calls", "count", "lower"),
    ("service.store_get.self_s", "s", "lower"),
    ("service.store.hit_ratio", "ratio", "higher"),
    ("service.protocol.calls", "count", "lower"),
    ("service.protocol.self_s", "s", "lower"),
    ("service.server.self_s", "s", "lower"),
    ("service.memory_hits", "count", "higher"),
    ("service.store_hits", "count", "higher"),
    ("service.computed", "count", "lower"),
    ("service.coalesced", "count", "higher"),
    ("campaign.shards_computed", "count", "lower"),
    ("campaign.shards_resumed", "count", "higher"),
    ("campaign.run.self_s", "s", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.traced_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

#: Metrics taken from the workload's exact round counts, not from probes.
ROUND_COUNTS = (
    "noc.retransmissions",
    "faults.corrupted",
    "faults.lost",
    "faults.failed_trials",
    "service.memory_hits",
    "service.store_hits",
    "service.computed",
    "service.coalesced",
    "campaign.shards_computed",
    "campaign.shards_resumed",
)


def install(tracer) -> None:
    """Wrap each layer's public entry points (``tracer.uninstall`` undoes)."""
    from repro.analysis import backends, vector
    from repro.api import engine
    from repro.campaign.campaign import Campaign
    from repro.core.flows import FlowSet
    from repro.core.weights import WeightTable
    from repro.experiments import scenario_wctt
    from repro.faults.models import LinkFaultInjector
    from repro.manycore.memory import MemoryController
    from repro.manycore.system import ManycoreSystem
    from repro.noc.network import Network
    from repro.noc.nic import NIC
    from repro.noc.router import Router
    from repro.noc.stats import NetworkStats
    from repro.service import protocol
    from repro.service.store import ResultStore
    from repro.topology.base import Topology

    def count_skipped(result, args, kwargs):
        tracer.count("sim.skipped_cycles", args[1] if len(args) > 1 else kwargs["cycles"])

    def count_store_hit(result, args, kwargs):
        if result is not None:
            tracer.count("service.store_hits_get")

    def count_put_bytes(path, args, kwargs):
        tracer.count("service.store_put.bytes", os.path.getsize(path))

    method = tracer.patch_method
    # Simulation: per-cycle functions, aggregated only.
    method(Topology, "output_port", "topology.output_port")
    method(Topology, "route", "topology.route")
    method(Router, "step", "noc.router_step")
    method(NIC, "step", "noc.nic_step")
    method(NetworkStats, "record_flit_hop", "noc.flit_eject")
    method(Network, "step", "sim.network_step")
    method(Network, "step_active", "sim.network_step")
    method(Network, "skip_idle_cycles", "sim.skip", after=count_skipped)
    method(Network, "next_activity_cycle", "sim.next_activity")
    method(ManycoreSystem, "next_activity_cycle", "sim.next_activity")
    method(ManycoreSystem, "skip_cycles", "manycore.skip")
    method(ManycoreSystem, "step", "manycore.step")
    method(ManycoreSystem, "step_active", "manycore.step")
    method(MemoryController, "step", "manycore.memory_step")
    method(LinkFaultInjector, "transmit", "faults.transmit")
    # Analysis: one span per design-point evaluation.  The paper's scalar
    # analysis is wrapped where scenario_wctt calls it, because the
    # registered backends call the same function internally.
    tracer.patch_function(vector, "vector_wctt_summary", "analysis.vector", span=True)
    tracer.patch_binding(scenario_wctt, "wctt_summary", "analysis.scalar", span=True)
    method(
        backends.AnalysisBackend,
        "wctt_summary",
        lambda backend, *args: f"analysis.{backend.name}",
        span=True,
    )
    method(FlowSet, "all_to_one", "core.flowset")
    method(WeightTable, "from_closed_form", "core.weights")
    method(WeightTable, "from_flow_set", "core.weights")
    # Execution, storage, protocol, campaigns.
    tracer.patch_function(engine, "config_hash", "api.config_hash")
    tracer.patch_function(engine, "safe_execute_job", "api.execute", span=True)
    method(ResultStore, "get", "service.store_get", after=count_store_hit)
    method(ResultStore, "put", "service.store_put", after=count_put_bytes)
    tracer.patch_function(protocol, "encode", "service.protocol")
    tracer.patch_function(protocol, "decode", "service.protocol")
    method(Campaign, "run", "campaign.run", span=True)


def layer_metrics(
    tracer, round_counts: Dict[str, float], untraced_s: float, traced_s: float
) -> Dict[str, Tuple[float, str]]:
    """Every ``PER_LAYER`` metric as ``{name: (value, unit)}``.

    Probes a workload never reaches read as 0.
    """
    aggs = tracer.aggregates()
    counters = tracer.counters

    def agg(name: str, key: str) -> float:
        return aggs.get(name, {}).get(key, 0)

    values: Dict[str, Any] = {}
    for name, unit, _ in PER_LAYER:
        probe, _, key = name.rpartition(".")
        if key in ("calls", "self_s") and probe:
            values[name] = agg(probe, key)
    stepped = agg("sim.network_step", "calls")
    skipped = counters.get("sim.skipped_cycles", 0)
    stepping_s = agg("manycore.step", "total_s") or agg("sim.network_step", "total_s")
    store_gets = agg("service.store_get", "calls")
    request_spans = [s for s in tracer.spans if s["name"] == "unit.rpc_request"]
    values.update(
        {
            "noc.flits_ejected": agg("noc.flit_eject", "calls"),
            "sim.stepped_cycles": stepped,
            "sim.skipped_cycles": skipped,
            "sim.skip_ratio": skipped / (stepped + skipped) if stepped + skipped else 0.0,
            "sim.us_per_stepped_cycle": 1e6 * stepping_s / stepped if stepped else 0.0,
            "service.store_put.bytes": counters.get("service.store_put.bytes", 0),
            "service.store.hit_ratio": (
                counters.get("service.store_hits_get", 0) / store_gets if store_gets else 0.0
            ),
            "service.server.self_s": sum(s["self_s"] for s in request_spans),
            "trace.untraced_s": untraced_s,
            "trace.traced_s": traced_s,
            "trace.overhead_ratio": traced_s / untraced_s,
        }
    )
    for name in ROUND_COUNTS:
        values[name] = round_counts.get(name, 0)
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}
