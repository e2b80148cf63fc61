"""The benchmark's four seeded workloads.

Every workload builds all of its inputs from the benchmark seed in its
constructor (the set-up that ``setup_s`` times) and then runs *rounds*: a
round is one fixed, seeded list of units of work, run from a fresh state.
``prepare_round`` resets that state outside the timed region;
``run_round`` times each unit.  Round 0 is the warm-up and defines the
workload's fingerprint; later rounds repeat the same units, always to the
end of the round, and each of their outputs must equal round 0's.

All load runs in this one process: ``jobs=1`` everywhere, no worker pool.
The daemon of ``service_rpc`` adds its event-loop thread and its single
compute thread, and the client uses one socket connection.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import calibrate

_perf = time.perf_counter


def _clocks() -> Tuple[float, float]:
    """(process CPU time, wall time) at the start of a unit.

    Units are timed in process CPU time -- user plus system time of every
    thread -- because it excludes the time a virtual CPU spends descheduled
    by the hypervisor (steal time), which on a shared host comes and goes
    in phases of a minute and more.  Wall time is kept alongside.
    """
    return time.process_time(), _perf()


def digest(value: Any) -> str:
    """Short stable digest of a JSON-serialisable value."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass
class RoundResult:
    """Timings and outputs of one round, unit by unit."""

    #: Process CPU seconds per unit (see ``_clocks``).
    seconds: List[float] = field(default_factory=list)
    #: Wall seconds per unit.
    wall: List[float] = field(default_factory=list)
    #: Work per unit, in the workload's throughput unit.
    work: List[float] = field(default_factory=list)
    #: Phase per unit: ``throughput_per_s`` counts the ``"main"`` units;
    #: other phases are timed and printed on their own.
    phases: List[str] = field(default_factory=list)
    #: Per unit, the host-speed reference time measured next to it
    #: (``calibrate.HostSpeed``).
    reference: List[float] = field(default_factory=list)
    #: Deterministic output record per unit (compared across rounds).
    outputs: List[Any] = field(default_factory=list)
    #: Descriptions of failed units (error responses, failed trials, ...).
    failures: List[str] = field(default_factory=list)
    #: Round-level deterministic results (campaign result-set digests, ...).
    summary: Dict[str, Any] = field(default_factory=dict)
    #: Exact per-layer counts of the round (fault counts, daemon stats, ...).
    counts: Dict[str, float] = field(default_factory=dict)
    #: Operations attempted, when a unit holds several (a campaign's points).
    operations: Optional[int] = None

    def time_unit(self, started: Tuple[float, float], work: float, phase: str = "main") -> None:
        """Record the CPU and wall time of the unit begun at ``started``."""
        cpu, wall = started
        self.seconds.append(time.process_time() - cpu)
        self.wall.append(_perf() - wall)
        self.work.append(work)
        self.phases.append(phase)
        self.reference.append(calibrate.HOST.current())


class Workload:
    """Interface of a workload (see the module docstring)."""

    name = "abstract"
    #: One unit of work, as named in the output.
    unit = "unit"
    #: What ``throughput_per_s`` counts for this workload.
    throughput_unit = "units"
    #: Rounds the traced run measures untraced and then traced (enough for
    #: about a second of untraced work).
    trace_rounds = 1
    #: The ``calibrate`` kernel whose speed the unit times are scaled by.
    reference = "interpreter"
    #: Whether the process keeps to one CPU (see ``ServiceRpc``).
    one_cpu = False

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")

    def describe(self) -> str:
        raise NotImplementedError

    def prepare_round(self) -> None:
        """Reset the state a round starts from (never timed)."""

    def run_round(self, tracer) -> RoundResult:
        raise NotImplementedError

    def finish_round(self, result: RoundResult) -> None:
        """Untimed, untraced follow-up of a round: read back what the round
        left behind (stored results, daemon counters) into ``result``."""

    def check(self, first: RoundResult) -> Tuple[int, List[str]]:
        """Output checks outside the timed region: (checks made, failures)."""
        return 0, []

    def fingerprint(self, first: RoundResult) -> Dict[str, Any]:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the workload holds (threads, sockets)."""


# ----------------------------------------------------------------------
# eembc_alone
# ----------------------------------------------------------------------
class EembcAlone(Workload):
    """Table III regime: each Autobench-like kernel alone against the memory
    controller at (0,0) of the 8x8 WaW+WaP mesh, event-driven backend.

    The seed picks one core at Manhattan distance 5 and one at distance 11
    from the memory controller (host cost per simulated cycle grows with
    the distance, so fixed distances keep runs of different seeds alike),
    the profile scale within +-4 % of 0.005 and the run order.
    """

    name = "eembc_alone"
    unit = "kernel run"
    throughput_unit = "simulated cycles"
    CORE_DISTANCES = (5, 11)
    CHECKED_RUNS = 2

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        from repro.api import Scenario
        from repro.geometry import Coord
        from repro.workloads.eembc import autobench_suite

        rng = self.rng
        self.scale = rng.uniform(0.0048, 0.0052)
        self.config = Scenario.mesh(8).waw_wap().backend("event").build()
        nodes = [Coord(x, y) for y in range(8) for x in range(8)]
        self.cores = [
            rng.choice([c for c in nodes if c.x + c.y == distance])
            for distance in self.CORE_DISTANCES
        ]
        profiles = [p.scaled(self.scale) for p in autobench_suite()]
        self.runs = [(profile, core) for core in self.cores for profile in profiles]
        rng.shuffle(self.runs)
        self.checked = sorted(rng.sample(range(len(self.runs)), self.CHECKED_RUNS))

    def describe(self) -> str:
        cores = " ".join(f"({c.x},{c.y})" for c in self.cores)
        return (
            f"{len(self.runs)} kernel runs (16 kernels x cores {cores}), "
            f"profile scale {self.scale:.6f}, 8x8 WaW+WaP, event-driven"
        )

    def _simulate(self, profile, core, backend=None):
        from repro.manycore.system import ManycoreSystem

        system = ManycoreSystem(self.config, backend=backend)
        system.add_profile_core(core, profile)
        cycles = system.run_to_completion()
        return {
            "kernel": profile.name,
            "core": [core.x, core.y],
            "makespan": system.makespan(),
            "cycles": cycles,
            "flits_ejected": system.network.stats.ejected_flits,
            "messages": system.network.stats.completed_messages,
        }

    def run_round(self, tracer):
        result = RoundResult()
        for profile, core in self.runs:
            start = _clocks()
            with tracer.span("unit.kernel_run"):
                output = self._simulate(profile, core)
            result.time_unit(start, output["cycles"])
            result.outputs.append(output)
        return result

    def check(self, first):
        failures = []
        for index in self.checked:
            profile, core = self.runs[index]
            reference = self._simulate(profile, core, backend="cycle")
            if reference != first.outputs[index]:
                failures.append(
                    f"{profile.name}@({core.x},{core.y}): event-driven "
                    f"{first.outputs[index]} != cycle-accurate {reference}"
                )
        return len(self.checked), failures

    def fingerprint(self, first):
        return {
            "simulated_cycles": sum(o["cycles"] for o in first.outputs),
            "flits_ejected": sum(o["flits_ejected"] for o in first.outputs),
            "messages": sum(o["messages"] for o in first.outputs),
            "makespans_digest": digest([o["makespan"] for o in first.outputs]),
        }


# ----------------------------------------------------------------------
# fault_mc
# ----------------------------------------------------------------------
class _CountingNetwork:
    """Stand-in network that counts what a traffic generator sends."""

    def __init__(self) -> None:
        self.sent = 0

    def send(self, *args: Any, **kwargs: Any) -> None:
        self.sent += 1

    def step(self) -> None:
        pass


class FaultMonteCarlo(Workload):
    """The ``reliability_sweep`` unit: seeded ``run_trials(workload=
    "uniform")`` trials on the 8x8 WaW+WaP mesh with independent corruption
    and loss faults plus HARQ, event-driven backend.

    Dense traffic (0.05 messages per node per cycle) keeps the event
    backend stepping nearly every cycle.  The seed derives each trial's
    fault seed and traffic seed.  A trial's cost follows its flit
    transmissions (one fault draw per flit and link), which vary with the
    seeds, so throughput counts those rather than trials.
    """

    name = "fault_mc"
    unit = "trial"
    throughput_unit = "flit transmissions"
    TRIALS_PER_ROUND = 8
    INJECTION_RATE = 0.05
    CYCLES = 120
    PAYLOAD_FLITS = 4
    FAULT_RATE = 0.005

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        from repro.api import Scenario

        self.config = (
            Scenario.mesh(8)
            .waw_wap()
            .backend("event")
            .fault_model(
                "independent",
                corrupt_rate=self.FAULT_RATE / 2,
                loss_rate=self.FAULT_RATE / 2,
                seed=1,
                ack_timeout=128,
            )
            .build()
        )
        self.trials = [
            (self.rng.randrange(1, 2**31), self.rng.randrange(1, 2**31))
            for _ in range(self.TRIALS_PER_ROUND)
        ]

    def describe(self) -> str:
        return (
            f"{len(self.trials)} trials per round: uniform traffic at "
            f"{self.INJECTION_RATE} msg/node/cycle for {self.CYCLES} cycles, "
            f"{self.PAYLOAD_FLITS}-flit payloads, fault rate {self.FAULT_RATE} "
            "(corrupt+loss), HARQ, 8x8 WaW+WaP, event-driven"
        )

    def run_round(self, tracer):
        from repro.faults.montecarlo import run_trials

        result = RoundResult()
        for fault_seed, traffic_seed in self.trials:
            start = _clocks()
            with tracer.span("unit.trial"):
                study = run_trials(
                    self.config,
                    trials=1,
                    base_seed=fault_seed,
                    workload="uniform",
                    jobs=1,
                    injection_rate=self.INJECTION_RATE,
                    cycles=self.CYCLES,
                    payload_flits=self.PAYLOAD_FLITS,
                    traffic_seed=traffic_seed,
                )
            outcome = study.outcomes[0]
            result.time_unit(start, outcome.fault_counts.get("transmitted", 0))
            if outcome.failed:
                result.failures.append(f"trial {fault_seed}: {outcome.failure}")
            result.outputs.append(
                {
                    "failed": outcome.failed,
                    "makespan": outcome.makespan,
                    "delivered": outcome.delivered_messages,
                    "latencies": digest(list(outcome.latencies)),
                    "samples": len(outcome.latencies),
                    "retransmissions": outcome.retransmissions,
                    "faults": dict(outcome.fault_counts),
                }
            )
        outputs = result.outputs
        result.counts.update(
            {
                "noc.retransmissions": sum(o["retransmissions"] for o in outputs),
                "faults.corrupted": sum(o["faults"].get("corrupted", 0) for o in outputs),
                "faults.lost": sum(o["faults"].get("lost", 0) for o in outputs),
                "faults.failed_trials": sum(1 for o in outputs if o["failed"]),
            }
        )
        return result

    def check(self, first):
        from repro.workloads.synthetic import UniformRandomTraffic

        failures = []
        for (fault_seed, traffic_seed), output in zip(self.trials, first.outputs):
            counter = _CountingNetwork()
            UniformRandomTraffic(
                self.config.mesh,
                injection_rate=self.INJECTION_RATE,
                payload_flits=self.PAYLOAD_FLITS,
                seed=traffic_seed,
            ).drive(counter, self.CYCLES)
            if output["failed"] or output["delivered"] != counter.sent or (
                output["samples"] != counter.sent
            ):
                failures.append(
                    f"trial {fault_seed}/{traffic_seed}: sent {counter.sent}, "
                    f"delivered {output['delivered']} ({output['samples']} "
                    f"latency samples, failed={output['failed']})"
                )
        return len(self.trials), failures

    def fingerprint(self, first):
        outputs = first.outputs
        return {
            "simulated_cycles": sum(o["makespan"] for o in outputs),
            "messages_delivered": sum(o["delivered"] for o in outputs),
            "retransmissions": sum(o["retransmissions"] for o in outputs),
            "fault_counts": {
                key: sum(o["faults"].get(key, 0) for o in outputs)
                for key in ("transmitted", "corrupted", "lost")
            },
            "makespans_latencies_digest": digest(
                [[o["makespan"], o["latencies"]] for o in outputs]
            ),
        }


# ----------------------------------------------------------------------
# Campaign grid (design_campaign)
# ----------------------------------------------------------------------
DESIGNS = ("regular", "waw_wap")
PACKET_FLITS = (1, 2, 4)
#: Vector-engine points (about 1 ms each, store write included).
VECTOR_POINTS = 64
#: One holistic-or-trajectory point per entry: the mesh sizes are fixed and
#: only the cheap axes are drawn, because flow-aware cost grows steeply
#: with the mesh and would otherwise make one seed's grid far dearer.
FLOW_AWARE_SIZES = (4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 10, 12)
#: Torus points, which the vector engine rejects: the scalar analysis runs.
TORUS_POINTS = ((4, "regular"), (4, "waw_wap"), (5, "regular"), (5, "waw_wap"), (6, "regular"))
SHARD_SIZE = 4
HOLDOUT_SHARDS = 1


def campaign_grid(rng: random.Random):
    """The seeded design-point grid: ``(jobs, vector_points)``.

    ``vector_points`` lists ``(job, scenario)`` of the points the vector
    engine evaluates, for the scalar cross-check.  The packet-size axis is
    the network's maximum packet length (``max_packet_flits``).
    """
    from repro.api import Scenario

    shapes = [(w, h) for w in range(4, 13) for h in range(4, 13)]
    product = [(s, d, p) for s in shapes for d in DESIGNS for p in PACKET_FLITS]
    jobs = []
    vector_points = []
    for (w, h), design, flits in rng.sample(product, VECTOR_POINTS):
        scenario = Scenario.mesh(w, h).design(design).max_packet_flits(flits)
        job = scenario.as_job()
        jobs.append(job)
        vector_points.append((job, scenario))
    variants = [
        (d, p, a) for d in DESIGNS for p in PACKET_FLITS for a in ("holistic", "trajectory")
    ]
    for size in sorted(set(FLOW_AWARE_SIZES)):
        for design, flits, analysis in rng.sample(variants, FLOW_AWARE_SIZES.count(size)):
            scenario = (
                Scenario.mesh(size).design(design).max_packet_flits(flits).analysis(analysis)
            )
            jobs.append(scenario.as_job())
    for size, design in TORUS_POINTS:
        width, height = rng.choice(((size, size), (size, size + 1), (size + 1, size)))
        scenario = (
            Scenario.mesh(width, height)
            .design(design)
            .max_packet_flits(rng.choice(PACKET_FLITS))
            .topology("torus")
        )
        jobs.append(scenario.as_job())
    rng.shuffle(jobs)
    return jobs, vector_points


def _make_campaign(jobs, store):
    from repro.campaign import Campaign

    return Campaign(
        jobs, name="perfbench", shard_size=SHARD_SIZE, holdout=HOLDOUT_SHARDS, store=store
    )


def _result_set_json(report) -> str:
    return json.dumps(report.result_set(), sort_keys=True)


def _wctt_rows(store, jobs) -> List[Any]:
    """Every design point's stored result rows, in grid order."""
    from repro.api import config_hash

    rows = []
    for job in jobs:
        stored = store.get(config_hash(job))
        rows.append(stored.rows() if stored is not None else None)
    return rows


def _describe_grid(jobs) -> str:
    return (
        f"{len(jobs)} scenario_wctt points ({VECTOR_POINTS} vector, "
        f"{len(FLOW_AWARE_SIZES)} holistic/trajectory on meshes "
        f"{min(FLOW_AWARE_SIZES)}-{max(FLOW_AWARE_SIZES)}, {len(TORUS_POINTS)} "
        f"torus/scalar) in shards of {SHARD_SIZE}, {HOLDOUT_SHARDS} held out"
    )


class DesignCampaign(Workload):
    """A seeded ``scenario_wctt`` grid run as a ``Campaign`` cold into a
    fresh ``ResultStore``: analysis compute plus store writes, no
    simulation.  A unit is one whole cold campaign; throughput counts
    design points.  Each round then resumes the checkpointed campaign a few
    times, each from a fresh ``ResultStore`` over the same directory:
    config hashing and store reads only, timed as the ``resume`` phase.
    """

    name = "design_campaign"
    unit = "cold campaign"
    throughput_unit = "design points"
    trace_rounds = 3
    SCALAR_CHECKS = 6
    RESUMES_PER_ROUND = 10

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.jobs, vector_points = campaign_grid(self.rng)
        self.checked = self.rng.sample(vector_points, self.SCALAR_CHECKS)
        self._rounds = 0
        self.store = None

    def describe(self) -> str:
        return (
            f"cold campaign, then {self.RESUMES_PER_ROUND} resumes, over "
            + _describe_grid(self.jobs)
        )

    def prepare_round(self) -> None:
        from repro.service import ResultStore

        if self.store is not None:
            shutil.rmtree(self.store.root, ignore_errors=True)
        self._rounds += 1
        self.store = ResultStore(os.path.join(self.workdir, f"cold-{self._rounds}"))

    def run_round(self, tracer):
        from repro.service import ResultStore

        result = RoundResult()
        start = _clocks()
        with tracer.span("unit.campaign_cold"):
            report = _make_campaign(self.jobs, self.store).run()
        result.time_unit(start, len(self.jobs))
        result.operations = len(self.jobs) * (1 + self.RESUMES_PER_ROUND)
        result_set = _result_set_json(report)
        result.outputs.append([digest(result_set)])
        result.failures.extend(
            f"{point['config_hash']}: {point['error']}" for point in report.failed_points()
        )
        result.summary["result_set_json"] = result_set
        timings = [report.timing()]
        for _ in range(self.RESUMES_PER_ROUND):
            start = _clocks()
            with tracer.span("unit.campaign_resume"):
                store = ResultStore(self.store.root)
                resumed = _make_campaign(self.jobs, store).run()
            result.time_unit(start, len(self.jobs), phase="resume")
            timings.append(resumed.timing())
            result.outputs.append(
                {
                    "result_set": digest(_result_set_json(resumed)),
                    "store_writes": store.writes,
                    "computed_shards": timings[-1]["computed_shards"],
                }
            )
        result.counts.update(
            {
                "campaign.shards_computed": sum(t["computed_shards"] for t in timings),
                "campaign.shards_resumed": sum(t["resumed_shards"] for t in timings),
            }
        )
        return result

    def finish_round(self, result):
        result.outputs[0].append(digest(_wctt_rows(self.store, self.jobs)))

    def check(self, first):
        from repro.analysis.vector import vector_wctt_summary
        from repro.api import config_hash
        from repro.core import FlowSet, make_wctt_analysis, wctt_summary

        failures = []
        for job, scenario in self.checked:
            config = scenario.build()
            vector = vector_wctt_summary(config)
            scalar = wctt_summary(
                make_wctt_analysis(config),
                FlowSet.all_to_one(config.mesh, config.memory_controller),
            )
            stored = self.store.get(config_hash(job)).rows()[0]
            if vector != scalar or (stored["WCTT max"], stored["WCTT min"]) != (
                scalar.maximum,
                scalar.minimum,
            ):
                failures.append(
                    f"{scenario.label()}: vector {vector} != scalar "
                    f"{scalar} (stored {stored})"
                )
        # Every resume: byte-identical result set, no writes, nothing computed.
        expected = {
            "result_set": digest(first.summary["result_set_json"]),
            "store_writes": 0,
            "computed_shards": 0,
        }
        for index, output in enumerate(first.outputs[1:]):
            if output != expected:
                failures.append(f"resume {index}: {output} != {expected}")
        return len(first.outputs) - 1 + len(self.checked), failures

    def fingerprint(self, first):
        result_set, wctt_rows = first.outputs[0]
        return {
            "design_points": len(self.jobs),
            "result_set_digest": result_set,
            "wctt_summaries_digest": wctt_rows,
        }

    def close(self) -> None:
        if self.store is not None:
            shutil.rmtree(self.store.root, ignore_errors=True)


# ----------------------------------------------------------------------
# service_rpc
# ----------------------------------------------------------------------
class ServiceRpc(Workload):
    """Closed-loop client on one socket connection to an in-process daemon
    (``start_service_thread(jobs=1)``) on a fresh store, one design point
    per request.

    The seeded request list mixes new points (computed by the daemon),
    first requests for points already in the store (store hits) and
    repeats of points sent before in the round (memory hits).  Points are
    vector-engine ``scenario_wctt`` evaluations, so a computed request costs
    about a millisecond more than a hit.

    The process keeps to one CPU: a round trip hands off between the
    client, the event loop and the compute thread, and the CPU cost of a
    hand-off depends on whether the threads share a CPU, which the
    scheduler otherwise decides afresh in every run.
    """

    name = "service_rpc"
    unit = "request"
    throughput_unit = "requests"
    reference = "socket"
    one_cpu = True
    trace_rounds = 2
    NEW_POINTS = 150
    STORED_POINTS = 30
    REQUESTS = 1500
    REFERENCE_CHECKS = 10

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        from repro.api import Scenario
        from repro.api.engine import config_hash
        from repro.service.protocol import job_to_wire

        rng = self.rng
        shapes = [(w, h) for w in range(4, 13) for h in range(4, 13)]
        product = [
            (s, d, p, b) for s in shapes for d in DESIGNS for p in (1, 2, 3, 4) for b in (1, 2, 4)
        ]
        points = []
        for (w, h), design, flits, depth in rng.sample(
            product, self.NEW_POINTS + self.STORED_POINTS
        ):
            scenario = (
                Scenario.mesh(w, h).design(design).max_packet_flits(flits).buffer_depth(depth)
            )
            points.append(scenario.as_job())
        self.new_jobs = points[: self.NEW_POINTS]
        self.stored_jobs = points[self.NEW_POINTS:]
        kinds = (
            ["new"] * (self.NEW_POINTS - 1)
            + ["stored"] * self.STORED_POINTS
            + ["repeat"] * (self.REQUESTS - self.NEW_POINTS - self.STORED_POINTS)
        )
        rng.shuffle(kinds)
        kinds.insert(0, "new")
        sequence = []
        new_iter = iter(self.new_jobs)
        stored_iter = iter(self.stored_jobs)
        sent = []
        for kind in kinds:
            if kind == "new":
                job = next(new_iter)
            elif kind == "stored":
                job = next(stored_iter)
            else:
                job = rng.choice(sent)
            sent.append(job)
            sequence.append((kind, config_hash(job), job))
        self.sequence = [
            (kind, digest_, {"op": "submit", "jobs": [job_to_wire(job)], "wait": True})
            for kind, digest_, job in sequence
        ]
        self.checked = rng.sample(points, self.REFERENCE_CHECKS)
        self.handle = None
        self.connection = None
        self.reader = None
        self.store_root = None
        self._rounds = 0

    def describe(self) -> str:
        return (
            f"{len(self.sequence)} requests per round on one connection: "
            f"{self.NEW_POINTS} new points, {self.STORED_POINTS} store hits, "
            f"{len(self.sequence) - self.NEW_POINTS - self.STORED_POINTS} "
            "repeats; fresh daemon (jobs=1) and store per round"
        )

    def prepare_round(self) -> None:
        from repro.api import BatchEngine
        from repro.service import ResultStore, start_service_thread

        self.close()
        self._rounds += 1
        self.store_root = os.path.join(self.workdir, f"rpc-{self._rounds}")
        store = ResultStore(self.store_root)
        for outcome in BatchEngine(jobs=1, store=store).run_many(self.stored_jobs):
            if not outcome.ok:
                raise RuntimeError(f"pre-seeding the store failed: {outcome.error}")
        self.handle = start_service_thread(jobs=1, store=store)
        self.connection = socket.create_connection(self.handle.address, timeout=60)
        self.reader = self.connection.makefile("rb")

    def _call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        from repro.service import protocol

        self.connection.sendall(protocol.encode(request))
        line = self.reader.readline()
        if not line:
            raise RuntimeError("the daemon closed the connection")
        return protocol.decode(line)

    def run_round(self, tracer):
        result = RoundResult()
        for kind, digest_, request in self.sequence:
            start = _clocks()
            with tracer.span("unit.rpc_request"):
                reply = self._call(request)
            result.time_unit(start, 1)
            ticket = (reply.get("tickets") or [{}])[0]
            answer = (reply.get("results") or [None])[0]
            if not reply.get("ok") or answer is None or ticket.get("hash") != digest_:
                result.failures.append(f"{kind} {digest_}: {reply.get('error', reply)}")
                result.outputs.append([digest_, None, None])
                continue
            result.outputs.append([digest_, ticket.get("source"), digest(answer.get("rows"))])
        return result

    def finish_round(self, result):
        stats = self._call({"op": "stats"})["stats"]["jobs"]
        result.summary = {"daemon_jobs": stats}
        result.counts.update(
            {
                "service.memory_hits": stats["memory_hits"],
                "service.store_hits": stats["store_hits"],
                "service.computed": stats["computed"],
                "service.coalesced": stats["coalesced"],
            }
        )
        # Each distinct point is computed once: new points by the daemon,
        # pre-seeded ones never.
        served = self.sequence[: len(result.outputs)]
        expected = {
            "computed": len({d for k, d, _ in served if k == "new"}),
            "store_hits": len({d for k, d, _ in served if k == "stored"}),
            "failed": 0,
        }
        observed = {key: stats[key] for key in expected}
        if observed != expected:
            result.failures.append(f"daemon stats {observed} != expected {expected}")

    def check(self, first):
        from repro.api import BatchEngine

        failures = []
        expected_source = {"new": "queued", "stored": "store", "repeat": "memory"}
        first_reply: Dict[str, Any] = {}
        for (kind, digest_, _), (_, source, rows) in zip(self.sequence, first.outputs):
            if source != expected_source[kind]:
                failures.append(f"{kind} request {digest_} answered from {source}")
            if rows is None:
                continue
            if first_reply.setdefault(digest_, rows) != rows:
                failures.append(f"repeated reply for {digest_} differs from the first")
        # Replies must also equal an in-process evaluation of the same point.
        engine = BatchEngine(jobs=1, use_cache=False)
        for job in self.checked:
            outcome = engine.run(job)
            reply = first_reply.get(outcome.config_hash)
            if not outcome.ok or reply != digest(outcome.result.rows()):
                failures.append(f"reply for {outcome.config_hash} differs from in-process run")
        return len(first.outputs) + len(self.checked), failures

    def fingerprint(self, first):
        return {
            "requests": len(first.outputs),
            "daemon_jobs": first.summary["daemon_jobs"],
            "replies_digest": digest(first.outputs),
        }

    def close(self) -> None:
        if self.reader is not None:
            self.reader.close()
            self.reader = None
        if self.connection is not None:
            self.connection.close()
            self.connection = None
        if self.handle is not None:
            self.handle.stop()
            self.handle = None
            if any(t.name == "repro-service" for t in threading.enumerate()):
                raise RuntimeError("the daemon thread did not stop")
        if self.store_root is not None:
            shutil.rmtree(self.store_root, ignore_errors=True)
            self.store_root = None


WORKLOADS = {
    cls.name: cls
    for cls in (EembcAlone, FaultMonteCarlo, DesignCampaign, ServiceRpc)
}
