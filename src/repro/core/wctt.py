"""Unified front-end over the two WCTT analyses.

Most callers (the experiments, the examples) do not care which analytical
model applies -- they hold a :class:`NoCConfig` and want "the WCTT bound of
this design point".  This module provides:

* :func:`make_wctt_analysis` -- the scalar analysis the paper's rule picks
  for the configuration (see :mod:`repro.analysis.backends`);
* :func:`design_label` -- the paper's name of a design point;
* :class:`WCTTSummary` / :func:`wctt_summary` -- the max/mean/min statistics
  over a flow set that the paper's Table II reports;
* :func:`wctt_map` -- the per-source WCTT map towards a single destination
  (used by the per-core UBD tables and the EEMBC experiment).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean
from typing import Dict, Iterable, Optional, Protocol, Union

from ..geometry import Coord
from .config import NoCConfig
from .flows import FlowSet
from .weights import WeightTable
from .wctt_regular import RegularMeshWCTTAnalysis
from .wctt_weighted import WaWWaPWCTTAnalysis

__all__ = [
    "WCTTAnalysis",
    "make_wctt_analysis",
    "design_label",
    "WCTTSummary",
    "wctt_summary",
    "wctt_map",
]


class WCTTAnalysis(Protocol):
    """Common interface of the two analytical models."""

    config: NoCConfig

    def wctt_packet(
        self, source: Coord, destination: Coord, *, packet_flits: Optional[int] = None
    ) -> int: ...

    def wctt_message(self, source: Coord, destination: Coord, *, payload_flits: int) -> int: ...

    def zero_load_latency(self, source: Coord, destination: Coord, packet_flits: int = 1) -> int: ...


AnalysisType = Union[RegularMeshWCTTAnalysis, WaWWaPWCTTAnalysis]


def make_wctt_analysis(
    config: NoCConfig,
    *,
    weight_table: Optional[WeightTable] = None,
) -> AnalysisType:
    """The scalar WCTT analysis the paper's rule picks for ``config``.

    Shorthand for ``make_analysis_backend(None).analysis(config, ...)``: a
    WaW+WaP configuration gets the bandwidth-share bound of
    :class:`WaWWaPWCTTAnalysis`; anything else gets the regular-mesh bound,
    with the contender packet size reduced to the minimum packet size when
    WaP is active -- that is exactly the benefit WaP provides on its own.
    WaW-only configurations have no sound bound and raise ``ValueError``.
    """
    # Imported lazily: repro.analysis depends on this module.
    from ..analysis.backends import make_analysis_backend

    return make_analysis_backend(None).analysis(config, weight_table=weight_table)


def design_label(config: NoCConfig) -> str:
    """The paper's name of the design point: ``WaW+WaP`` or ``regular``."""
    return "WaW+WaP" if config.is_waw_wap else "regular"


@dataclass(frozen=True)
class WCTTSummary:
    """Max/mean/min WCTT over a set of flows (one row of the paper's Table II)."""

    design: str
    mesh: str
    maximum: int
    average: float
    minimum: int
    flow_count: int

    def as_dict(self) -> Dict[str, Union[str, int, float]]:
        return {
            "design": self.design,
            "mesh": self.mesh,
            "max": self.maximum,
            "mean": round(self.average, 2),
            "min": self.minimum,
            "flows": self.flow_count,
        }

    @classmethod
    def from_values(
        cls, config: NoCConfig, values: Iterable[int], label: Optional[str] = None
    ) -> "WCTTSummary":
        """Summarise per-flow bounds of ``config`` (label: :func:`design_label`)."""
        values = list(values)
        if not values:
            raise ValueError("flow set is empty")
        return cls(
            design=label if label is not None else design_label(config),
            # ``short_label`` is "WxH" for the plain mesh (seed-identical rows)
            # and carries the topology kind otherwise (e.g. "4x4 torus").
            mesh=config.topology.short_label(),
            maximum=max(values),
            average=mean(values),
            minimum=min(values),
            flow_count=len(values),
        )


def wctt_summary(
    analysis: AnalysisType,
    flow_set: FlowSet,
    *,
    packet_flits: int = 1,
    design_label: Optional[str] = None,
) -> WCTTSummary:
    """Compute max/mean/min packet WCTT over every flow of ``flow_set``."""
    values = [
        analysis.wctt_packet(flow.source, flow.destination, packet_flits=packet_flits)
        for flow in flow_set
    ]
    return WCTTSummary.from_values(analysis.config, values, design_label)


def wctt_map(
    analysis: AnalysisType,
    destination: Coord,
    *,
    packet_flits: int = 1,
) -> Dict[Coord, int]:
    """Per-source packet WCTT towards a single destination.

    Returns a mapping from every node (other than ``destination``) to its
    WCTT bound; the destination itself is omitted.  This is the quantity the
    per-core UBD tables of the evaluated manycore are built from.
    """
    mesh = analysis.config.mesh
    mesh.require(destination)
    return {
        src: analysis.wctt_packet(src, destination, packet_flits=packet_flits)
        for src in mesh.nodes()
        if src != destination
    }
