"""Validation of the analytical WCTT bounds against the cycle-accurate simulator.

A worst-case bound is only useful if it is *safe*: no traversal observed on
the real (here: simulated) network may exceed it.  This module builds the
most adversarial congestion scenario the simulator can express for a chosen
victim flow -- every node whose path overlaps the victim's path keeps several
messages outstanding towards the victim's destination -- measures the worst
traversal time of probe packets of the victim flow, and compares it against
the analytical bound of the corresponding design point.

Because the analytical models assume an unbounded backlog of interfering
packets at *every* hop simultaneously (which finite buffers cannot fully
sustain), the measured worst case is expected to stay below the bound, often
by a comfortable margin for the regular design; the validation asserts the
safety direction (measured <= bound) and reports the tightness ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.config import NoCConfig
from ..core.wctt import design_label
from ..core.weights import WeightTable
from ..geometry import Coord
from ..noc.network import Network
from ..workloads.synthetic import AdversarialCongestionTraffic
from .backends import make_analysis_backend

__all__ = [
    "BoundValidationResult",
    "adversarial_probe_latencies",
    "validate_flow_bound",
    "validate_design",
]


@dataclass(frozen=True)
class BoundValidationResult:
    """Outcome of one bound-vs-measurement comparison."""

    design: str
    source: Coord
    destination: Coord
    analytical_bound: int
    observed_worst: int
    probes: int

    @property
    def is_safe(self) -> bool:
        """True when no observed traversal exceeded the analytical bound."""
        return self.observed_worst <= self.analytical_bound

    @property
    def tightness(self) -> float:
        """Observed worst case as a fraction of the bound (1.0 = tight)."""
        return self.observed_worst / self.analytical_bound if self.analytical_bound else 0.0


def adversarial_probe_latencies(
    config: NoCConfig,
    source: Coord,
    destination: Coord,
    *,
    weight_table: Optional[WeightTable] = None,
    congestion_cycles: int = 2_000,
    background_outstanding: int = 4,
    probe_period: int = 200,
    payload_flits: Optional[int] = None,
) -> List[int]:
    """Network latencies of the victim flow's probes under adversarial congestion.

    Every node whose path overlaps the victim's keeps
    ``background_outstanding`` messages towards ``destination``; the WaW
    arbiters run with ``weight_table`` (default: the network's own).
    ``payload_flits`` defaults to the design's minimum packet size.
    """
    payload = payload_flits if payload_flits is not None else config.min_packet_flits
    network = Network(config, weight_table=weight_table)
    traffic = AdversarialCongestionTraffic(
        mesh=config.mesh,
        victim_source=source,
        victim_destination=destination,
        background_outstanding=background_outstanding,
        probe_period=probe_period,
        payload_flits=payload,
    )
    probes, _ = traffic.drive(network, congestion_cycles)
    latencies = [p.network_latency for p in probes if p.network_latency is not None]
    if not latencies:
        raise RuntimeError("no probe completed during validation")
    return latencies


def validate_flow_bound(
    config: NoCConfig,
    source: Coord,
    destination: Coord,
    *,
    congestion_cycles: int = 2_000,
    background_outstanding: int = 4,
    probe_period: int = 200,
    payload_flits: Optional[int] = None,
) -> BoundValidationResult:
    """Measure the worst probe traversal under adversarial congestion.

    ``payload_flits`` defaults to the design's minimum packet size so that a
    probe is a single packet in both designs and the measurement compares
    directly against :meth:`wctt_packet`.  Design points without a sound
    bound (WaW-only) raise ``ValueError``.
    """
    payload = payload_flits if payload_flits is not None else config.min_packet_flits
    # The adversarial background traffic keeps several packets per flow
    # outstanding, i.e. it does *not* conform to the per-round regulation
    # the paper-style WaW+WaP bound assumes, so the comparison uses the
    # backlog-aware (burst-safe) variant of the design point's bound.
    analysis = make_analysis_backend(None).validation_analysis(
        config, destination=destination
    )
    latencies = adversarial_probe_latencies(
        config,
        source,
        destination,
        # The simulated arbiters run with the weights the bound assumes.
        weight_table=getattr(analysis, "weights", None),
        congestion_cycles=congestion_cycles,
        background_outstanding=background_outstanding,
        probe_period=probe_period,
        payload_flits=payload,
    )
    return BoundValidationResult(
        design=design_label(config),
        source=source,
        destination=destination,
        analytical_bound=analysis.wctt_packet(source, destination, packet_flits=payload),
        observed_worst=max(latencies),
        probes=len(latencies),
    )


def validate_design(
    config: NoCConfig,
    *,
    destination: Optional[Coord] = None,
    sources: Optional[List[Coord]] = None,
    congestion_cycles: int = 1_500,
) -> List[BoundValidationResult]:
    """Validate the bound for a representative set of flows of a design point.

    By default the destination is the memory controller and the sources are
    the nearest node, the farthest node and a mid-distance node -- the three
    regimes where the bound behaves differently.
    """
    mesh = config.mesh
    dst = destination if destination is not None else config.memory_controller
    if sources is None:
        far = Coord(mesh.width - 1, mesh.height - 1)
        near = Coord(1, 0) if dst == Coord(0, 0) else Coord(max(0, dst.x - 1), dst.y)
        mid = Coord(mesh.width // 2, mesh.height // 2)
        sources = [s for s in (near, mid, far) if s != dst]
    results = []
    for source in sources:
        results.append(
            validate_flow_bound(
                config, source, dst, congestion_cycles=congestion_cycles
            )
        )
    return results
