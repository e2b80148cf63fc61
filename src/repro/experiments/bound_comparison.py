"""Experiment E12 -- competing analysis backends vs adversarial simulation.

Every registered analytical lens (the paper's ``regular`` / ``weighted``
bounds and the flow-aware ``holistic`` / ``trajectory`` analyses) is
evaluated over the same topology x workload x packet-size grid, and every
bound is cross-checked against the worst probe traversal the cycle-accurate
simulator observes under the most adversarial congestion it can express for
that design point (the :mod:`repro.analysis.validation` machinery).

Two disciplines shape the run:

* **blind analysis** (the STAR isobar methodology, arXiv:1911.00596): a
  deterministic *held-out* subset of the grid is simulated first and every
  backend's bound must be sound on it -- an unsound backend aborts the run
  before the full comparison is even computed, so tightness numbers can
  never be read off a broken bound;
* **tightness scoring**: per (design point, flow) the *winning* backend is
  the sound bound closest to the observation (ties share the win), and the
  report aggregates per-backend wins, mean tightness and soundness verdicts.

The ``workload`` axis is what separates the competitors: on the ``full``
all-to-one workload the flow-aware analyses provably collapse onto the
paper's bounds (every legal input is active), while on the ``sparse``
workload (a checkerboard subset of sources, simulated by restricting the
adversary's ``background_sources``) they charge only the inputs that can
actually request -- the regime where knowing the flow set pays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.reporting import format_table, format_title
from ..api import Scenario, experiment, unwrap
from ..api.engine import map_jobs
from ..core.flows import FlowSet
from ..core.weights import WeightTable
from ..geometry import Coord

__all__ = ["ComparisonRow", "SoundnessViolation", "run", "report"]

#: The competing registered backends bounding each design.
DESIGN_BACKENDS: Dict[str, Tuple[str, ...]] = {
    "regular": ("regular", "holistic", "trajectory"),
    "waw_wap": ("weighted", "holistic", "trajectory"),
}

#: Grid axes accepted by :func:`run`.
WORKLOADS = ("full", "sparse")
TOPOLOGIES = ("mesh", "cmesh")


class SoundnessViolation(RuntimeError):
    """A backend's bound fell below an observed traversal on the held-out set."""


@dataclass(frozen=True)
class ComparisonRow:
    """One backend's bound vs the shared observation of one (point, flow)."""

    phase: str
    point: str
    design: str
    topology: str
    workload: str
    payload_flits: int
    flow: str
    backend: str
    bound: int
    observed: int
    probes: int
    safe: bool
    slack: int
    tightness: float
    winner: bool

    def as_dict(self) -> Dict[str, Any]:
        return {
            "phase": self.phase,
            "point": self.point,
            "design": self.design,
            "topology": self.topology,
            "workload": self.workload,
            "payload flits": self.payload_flits,
            "flow": self.flow,
            "backend": self.backend,
            "bound": self.bound,
            "observed worst": self.observed,
            "probes": self.probes,
            "safe": self.safe,
            "slack": self.slack,
            "observed/bound": round(self.tightness, 3),
            "winner": self.winner,
        }


# ----------------------------------------------------------------------
# Grid construction
# ----------------------------------------------------------------------
def _point_scenario(size: int, topology: str, design: str) -> Scenario:
    scenario = Scenario.mesh(size).design(design)
    if topology == "cmesh":
        scenario = scenario.topology("cmesh", concentration=2)
    elif topology != "mesh":
        raise ValueError(f"topology must be one of {TOPOLOGIES}, got {topology!r}")
    return scenario


def _victims(width: int, height: int, dst: Coord) -> List[Coord]:
    """Far corner and a near node -- the two bound regimes, like validation."""
    far = Coord(width - 1, height - 1)
    near = Coord(1, 0) if dst == Coord(0, 0) else Coord(max(0, dst.x - 1), dst.y)
    return [v for v in (near, far) if v != dst]


def _sparse_sources(nodes: Sequence[Coord], dst: Coord, victim: Coord) -> List[Coord]:
    """Checkerboard subset of sources (victim always included)."""
    return [n for n in nodes if n != dst and ((n.x + n.y) % 2 == 0 or n == victim)]


def _grid_jobs(
    mesh_sizes: Sequence[int],
    topologies: Sequence[str],
    designs: Sequence[str],
    workloads: Sequence[str],
    payload_sizes: Sequence[int],
    congestion_cycles: int,
) -> List[Dict[str, Any]]:
    jobs: List[Dict[str, Any]] = []
    for size in mesh_sizes:
        for topology in topologies:
            for design in designs:
                if design not in DESIGN_BACKENDS:
                    known = ", ".join(sorted(DESIGN_BACKENDS))
                    raise ValueError(
                        f"unknown design {design!r}; known designs: {known}"
                    )
                scenario = _point_scenario(size, topology, design)
                config = scenario.build()
                dst = config.memory_controller
                for workload in workloads:
                    if workload not in WORKLOADS:
                        raise ValueError(
                            f"workload must be one of {WORKLOADS}, got {workload!r}"
                        )
                    for payload in payload_sizes:
                        for victim in _victims(
                            config.mesh.width, config.mesh.height, dst
                        ):
                            jobs.append(
                                {
                                    "size": size,
                                    "topology": topology,
                                    "design": design,
                                    "workload": workload,
                                    "payload": payload,
                                    "victim": [victim.x, victim.y],
                                    "cycles": congestion_cycles,
                                }
                            )
    return jobs


# ----------------------------------------------------------------------
# Per-job evaluation (top-level: must pickle into the map_jobs pool)
# ----------------------------------------------------------------------
def _burst_safe_message_bound(config, analysis, source, destination, payload: int) -> int:
    """Burst-safe bound for a whole probe message.

    WaP analyses pipeline consecutive slices at one arbitration-round
    spacing (``first + (slices - 1) * bottleneck_round``) -- an argument
    that assumes *regulated* contenders and is demonstrably exceeded under
    the adversarial traffic simulated here (backlog re-accumulates between
    slices).  Every slice is therefore charged the full burst-safe packet
    bound.  Non-WaP designs keep their message bound: it is already a plain
    sum over the message's packets.
    """
    if not config.is_wap:
        return analysis.wctt_message(source, destination, payload_flits=payload)
    messages = config.messages
    if payload == 1:
        slices = 1
    else:
        payload_bits = payload * messages.link_width_bits - messages.control_bits
        slices = messages.wap_packets_for_payload_bits(payload_bits)
    return slices * analysis.wctt_packet(source, destination)


def _evaluate_job(job: Dict[str, Any]) -> Dict[str, Any]:
    """Simulate one (design point, flow) once; bound it with every backend."""
    from ..analysis.backends import make_analysis_backend
    from ..noc.network import Network
    from ..workloads.synthetic import AdversarialCongestionTraffic

    config = _point_scenario(job["size"], job["topology"], job["design"]).build()
    mesh = config.mesh
    dst = config.memory_controller
    victim = Coord(*job["victim"])
    nodes = list(mesh.nodes())

    if job["workload"] == "sparse":
        active_sources = _sparse_sources(nodes, dst, victim)
    else:
        active_sources = [n for n in nodes if n != dst]
    flow_set = FlowSet.from_pairs(mesh, [(src, dst) for src in active_sources])

    # The WaW hardware is statically configured for the general all-to-one
    # case; a sparse workload does NOT re-weight the arbiters.  That static
    # table is what the network runs with and what every analysis is told
    # about -- the flow-aware backends win by charging only the subset of
    # its credits that can actually request.
    static_weights = (
        WeightTable.from_flow_set(FlowSet.all_to_one(mesh, dst))
        if config.is_waw
        else None
    )

    bounds: Dict[str, int] = {}
    for name in DESIGN_BACKENDS[job["design"]]:
        backend = make_analysis_backend(name)
        analysis = backend.validation_analysis(
            config, destination=dst, flow_set=flow_set, weight_table=static_weights
        )
        bounds[name] = _burst_safe_message_bound(
            config, analysis, victim, dst, job["payload"]
        )

    network = Network(config, weight_table=static_weights)
    traffic = AdversarialCongestionTraffic(
        mesh=mesh,
        victim_source=victim,
        victim_destination=dst,
        payload_flits=job["payload"],
        background_sources=None if job["workload"] == "full" else active_sources,
    )
    probes, _ = traffic.drive(network, job["cycles"])
    latencies = [p.network_latency for p in probes if p.network_latency is not None]
    if not latencies:
        raise RuntimeError(f"no probe completed for job {job!r}")

    return {
        **job,
        "dst": [dst.x, dst.y],
        "observed": max(latencies),
        "probes": len(latencies),
        "bounds": bounds,
    }


def _to_rows(outcome: Dict[str, Any], phase: str) -> List[ComparisonRow]:
    observed = outcome["observed"]
    bounds: Dict[str, int] = outcome["bounds"]
    sound = [b for b, v in bounds.items() if v >= observed]
    best = min((bounds[b] for b in sound), default=None)
    victim = Coord(*outcome["victim"])
    dst = Coord(*outcome["dst"])
    point = "-".join(
        [
            outcome["design"],
            f"{outcome['size']}x{outcome['size']}",
            outcome["topology"],
            outcome["workload"],
            f"p{outcome['payload']}",
        ]
    )
    rows = []
    for backend, bound in bounds.items():
        rows.append(
            ComparisonRow(
                phase=phase,
                point=point,
                design=outcome["design"],
                topology=outcome["topology"],
                workload=outcome["workload"],
                payload_flits=outcome["payload"],
                flow=f"{victim}->{dst}",
                backend=backend,
                bound=bound,
                observed=observed,
                probes=outcome["probes"],
                safe=bound >= observed,
                slack=bound - observed,
                tightness=observed / bound if bound else 0.0,
                winner=bound >= observed and bound == best,
            )
        )
    return rows


@experiment(
    "bound_comparison",
    description="Competing analysis backends: tightness vs adversarial simulation",
    paper_reference="extension (analysis backends)",
    quick_params={
        "mesh_sizes": (3,),
        "payload_sizes": (1,),
        "congestion_cycles": 600,
    },
    sweep_axes={
        "size": lambda v: {"mesh_sizes": (v,)},
        "workload": lambda v: {"workloads": (v,)},
        "payload_flits": lambda v: {"payload_sizes": (v,)},
    },
)
def run(
    *,
    mesh_sizes: Sequence[int] = (3, 4),
    topologies: Sequence[str] = TOPOLOGIES,
    designs: Sequence[str] = ("regular", "waw_wap"),
    workloads: Sequence[str] = WORKLOADS,
    payload_sizes: Sequence[int] = (1, 4),
    congestion_cycles: int = 1_200,
    jobs: int = 1,
) -> List[ComparisonRow]:
    """Compare every applicable analysis backend over the grid.

    Each (design point, flow) is simulated exactly once under adversarial
    congestion and the observation is shared by all backends' rows.
    ``jobs`` fans the simulations onto the ``map_jobs`` worker pool.

    Following the blind-analysis discipline, a deterministic held-out third
    of the grid is simulated *first* and every backend must be sound on it;
    a violation raises :class:`SoundnessViolation` and the full grid is
    never evaluated.
    """
    specs = _grid_jobs(
        mesh_sizes, topologies, designs, workloads, payload_sizes, congestion_cycles
    )
    holdout = [spec for i, spec in enumerate(specs) if i % 3 == 0]
    rest = [spec for i, spec in enumerate(specs) if i % 3 != 0]

    holdout_outcomes = map_jobs(_evaluate_job, holdout, jobs=jobs)
    violations = []
    for outcome in holdout_outcomes:
        for backend, bound in outcome["bounds"].items():
            if bound < outcome["observed"]:
                violations.append(
                    f"{backend}: bound {bound} < observed {outcome['observed']} "
                    f"on {outcome['design']}-{outcome['size']}x{outcome['size']}-"
                    f"{outcome['topology']}-{outcome['workload']} "
                    f"flow {tuple(outcome['victim'])}"
                )
    if violations:
        raise SoundnessViolation(
            "held-out soundness check failed; the comparison grid was not "
            "evaluated: " + "; ".join(violations)
        )

    rest_outcomes = map_jobs(_evaluate_job, rest, jobs=jobs)
    rows: List[ComparisonRow] = []
    for outcome in holdout_outcomes:
        rows.extend(_to_rows(outcome, "holdout"))
    for outcome in rest_outcomes:
        rows.extend(_to_rows(outcome, "full"))
    return rows


def _aggregate(rows: List[ComparisonRow]) -> List[Dict[str, Any]]:
    """Per-backend tightness/soundness summary for the report."""
    by_backend: Dict[str, List[ComparisonRow]] = {}
    for row in rows:
        by_backend.setdefault(row.backend, []).append(row)
    summary = []
    for backend in sorted(by_backend):
        entries = by_backend[backend]
        summary.append(
            {
                "backend": backend,
                "rows": len(entries),
                "wins": sum(1 for r in entries if r.winner),
                "mean observed/bound": round(
                    sum(r.tightness for r in entries) / len(entries), 3
                ),
                "sound": "yes" if all(r.safe for r in entries) else "NO",
            }
        )
    return summary


def report(rows: Optional[List[ComparisonRow]] = None) -> str:
    rows = unwrap(rows) if rows is not None else unwrap(run())
    title = format_title("Analysis backend comparison -- bounds vs adversarial simulation")
    table = format_table([r.as_dict() for r in rows])
    summary = format_table(_aggregate(rows))
    all_safe = all(r.safe for r in rows)
    note = (
        "\nEvery backend's bound is sound on every evaluated point."
        if all_safe
        else "\nWARNING: at least one bound was exceeded by an observation!"
    )
    return f"{title}\n{table}\n\nPer-backend summary:\n{summary}{note}"


def main() -> None:  # pragma: no cover - thin CLI wrapper
    print(report())


if __name__ == "__main__":  # pragma: no cover
    main()
