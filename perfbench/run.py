"""Seeded benchmark of the ``repro`` simulator, Monte-Carlo engine, design
campaigns and analysis daemon.

Run from the repository root::

    python3 perfbench/run.py --workload eembc_alone --seed 1 --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics untraced: ``setup_s`` is the
median over separate set-up processes, then a warm-up round and whole
timed rounds of the workload fill about ``--seconds`` wall seconds.
Every time metric is process CPU time (user plus system, all threads),
which leaves out the hypervisor's steal time, scaled to the reference host
by a reference kernel timed beside the workload (see calibrate.py); the
unscaled and wall times are printed next to it.  ``throughput_per_s``
takes each unit of work at the median of its timed repeats.  ``--trace 1``
runs a warm-up round, then a fixed number of rounds untraced and the same
number with every layer probe installed, and reports the per-layer
metrics of the traced rounds and the tracing overhead (traced against
untraced time).
Either way the outputs are checked outside the timed region, and the last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
See perfbench/README.md for the workloads, metrics and their rationale.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array

import calibrate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
#: Runtime files (work stores, span dumps); listed in the root .gitignore.
OUTPUT_DIR = os.path.join(ROOT, ".perfbench")
#: Separate set-up processes per timed run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Reference-kernel samples a set-up process takes once ready (the fastest
#: is used).
SETUP_REFERENCE_SAMPLES = 3
#: Timed rounds a run makes however short ``--seconds`` is.
MIN_TIMED_ROUNDS = 3
PROBE_TIMEOUT_S = 120

#: The end-to-end metrics of BENCHMARK.json: (name, unit).
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
]
#: Unit latencies: printed by every timed run, unscaled, but not in
#: BENCHMARK.json: on a shared host their spread between runs came close
#: to the largest regression bound (see README.md, Noise).
LATENCIES = [
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
]

#: Workload-specific names of the end-to-end metrics, printed next to the
#: generic ones: (name, workload measuring it or None for all, metric).
NAMED_METRICS = [
    ("setup_s", None, "setup_s"),
    ("peak_rss_mb", None, "peak_rss_mb"),
    ("error_rate", None, "error_rate"),
    ("sim_cycles_per_s", "eembc_alone", "throughput_per_s"),
    ("trials_per_s", "fault_mc", "units_per_s"),
    ("cold_points_per_s", "design_campaign", "throughput_per_s"),
    ("resume_points_per_s", "design_campaign", "resume_per_s"),
    ("rpc_p50_ms", "service_rpc", "latency_p50_ms"),
    ("rpc_p99_ms", "service_rpc", "latency_p99_ms"),
    ("rpc_per_s", "service_rpc", "throughput_per_s"),
]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="internal: set the workload up, print the ready time, exit",
    )
    return parser.parse_args(argv)


def _import_repro():
    """Import the package from this checkout's ``src`` (never elsewhere)."""
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no repro package under {SOURCE}; run from a full checkout")
    sys.path.insert(0, SOURCE)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SOURCE + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SOURCE}")


def percentile(samples, q):
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _workdir() -> str:
    path = os.path.join(OUTPUT_DIR, f"work-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _setup_probe(args) -> int:
    """Child side of ``setup_s``: set up, report the ready time and the
    host-speed reference measured right after it, tear down."""
    from workloads import WORKLOADS

    workdir = _workdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        host = calibrate.HostSpeed(workload.reference)
        try:
            workload.prepare_round()
            ready = {"cpu_s": time.process_time(), "monotonic": time.monotonic()}
            ready["reference_s"] = min(host.sample() for _ in range(SETUP_REFERENCE_SAMPLES))
            ready["nominal_s"] = host.nominal_s
        finally:
            host.close()
            workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(ready))
    return 0


def _measure_setup(args):
    """Set-up cost from process start to ready, one fresh process per sample.

    Returns the child's process CPU seconds at ready (which count from
    process creation, interpreter start-up included) scaled to the
    reference host like the unit times (see calibrate), the unscaled CPU
    seconds, and the wall seconds from spawn to ready: both sides read
    CLOCK_MONOTONIC, which is system-wide.
    """
    samples = []
    unscaled = []
    walls = []
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe",
    ]
    for _ in range(SETUP_REPEATS):
        spawned = time.monotonic()
        probe = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
        )
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{probe.stderr}")
        ready = json.loads(probe.stdout.strip().splitlines()[-1])
        samples.append(ready["cpu_s"] * ready["nominal_s"] / ready["reference_s"])
        unscaled.append(ready["cpu_s"])
        walls.append(ready["monotonic"] - spawned)
    return samples, unscaled, walls


class _Rounds:
    """The rounds of one run.  Round 0 is kept whole; each later round is
    checked against it as it finishes and only its timings and counts are
    kept, in compact arrays, so memory does not grow with their number."""

    def __init__(self) -> None:
        self.first = None
        #: Rounds after round 0.
        self.timed = 0
        #: Per later round, each unit's CPU seconds on the reference host.
        self.scaled = []
        #: CPU seconds of every ``"main"`` unit of the later rounds.
        self.main_seconds = array("d")
        #: Every reference-kernel time the later rounds were scaled by.
        self.references = array("d")
        self.cpu_s = 0.0
        self.wall_s = 0.0
        #: Exact per-layer counts summed over the later rounds.
        self.counts = {}
        self.attempted = 0
        self.failures = []

    def add(self, result) -> None:
        self.attempted += (
            result.operations if result.operations is not None else len(result.outputs)
        )
        self.failures.extend(result.failures)
        if self.first is None:
            self.first = result
            return
        for index, output in enumerate(result.outputs):
            self.attempted += 1
            if output != self.first.outputs[index]:
                self.failures.append(f"unit {index} differs from round 0: {output!r}")
        nominal = calibrate.HOST.nominal_s
        self.timed += 1
        self.scaled.append(
            array("d", (s * nominal / ref for s, ref in zip(result.seconds, result.reference)))
        )
        self.main_seconds.extend(
            s for s, phase in zip(result.seconds, result.phases) if phase == "main"
        )
        self.references.extend(result.reference)
        self.cpu_s += sum(result.seconds)
        self.wall_s += sum(result.wall)
        for name, value in result.counts.items():
            self.counts[name] = self.counts.get(name, 0) + value

    def rate(self, phase: str):
        """Work of ``phase``'s units per second, and units per second, each
        unit at the median of its scaled repeats; None if there are none."""
        units = [i for i, p in enumerate(self.first.phases) if p == phase]
        if not units:
            return None, None
        seconds = sum(statistics.median(r[i] for r in self.scaled) for i in units)
        return sum(self.first.work[i] for i in units) / seconds, len(units) / seconds


def _run_round(workload, tracer, rounds: _Rounds, probes: bool = False) -> None:
    """One round from a fresh state, with garbage collected beforehand so
    that no round pays for the garbage of the one before.  With ``probes``
    the layer probes are installed around the round's units only."""
    import layers

    workload.prepare_round()
    gc.collect()
    if probes:
        layers.install(tracer)
    try:
        result = workload.run_round(tracer)
    finally:
        if probes:
            tracer.uninstall()
    workload.finish_round(result)
    rounds.add(result)


def _timed(workload, seconds: float) -> _Rounds:
    """Round 0 (warm-up and reference), then whole timed rounds, at least
    ``MIN_TIMED_ROUNDS``, as long as the next one is due to end within
    ``seconds`` of the start."""
    from tracer import NullTracer

    rounds = _Rounds()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        _run_round(workload, NullTracer(), rounds)
        now = time.perf_counter()
        if rounds.timed >= MIN_TIMED_ROUNDS and 2 * now - round_start > start + seconds:
            return rounds


def _traced(workload):
    """Round 0 untraced (warm-up and reference), then ``trace_rounds``
    rounds untraced and the same number traced."""
    from tracer import NullTracer, Tracer

    untraced = _Rounds()
    for _ in range(1 + workload.trace_rounds):
        _run_round(workload, NullTracer(), untraced)
    tracer = Tracer()
    traced = _Rounds()
    traced.first = untraced.first
    for _ in range(workload.trace_rounds):
        _run_round(workload, tracer, traced, probes=True)
    return untraced, traced, tracer


def _end_to_end(args, workload, rounds, setup, error_rate):
    """The end-to-end metrics of an untraced run, printed and returned."""
    throughput, units_per_s = rounds.rate("main")
    main_work = sum(w for w, p in zip(rounds.first.work, rounds.first.phases) if p == "main")
    values = {
        "setup_s": statistics.median(setup[0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "throughput_per_s": throughput,
        "units_per_s": units_per_s,
        "resume_per_s": rounds.rate("resume")[0],
        "latency_p50_ms": 1000 * percentile(rounds.main_seconds, 50),
        "latency_p99_ms": 1000 * percentile(rounds.main_seconds, 99),
        "error_rate": error_rate,
    }
    units = dict(END_TO_END + LATENCIES, error_rate="ratio", units_per_s="1/s", resume_per_s="1/s")
    host = calibrate.HOST
    print(
        f"measured {rounds.timed} timed round(s) of {len(rounds.first.seconds)} unit(s) "
        f"after a warm-up round: {rounds.cpu_s:.3f} CPU s in {rounds.wall_s:.3f} wall s; "
        f"throughput counts {workload.throughput_unit}, each {workload.unit} at the "
        f"median of its repeats, scaled to the reference host; unscaled rate over every "
        f"repeat {main_work * rounds.timed / sum(rounds.main_seconds):.6g}/s; "
        f"{host.kind} reference kernel median {1000 * statistics.median(rounds.references):.4g} ms "
        f"(nominal {1000 * host.nominal_s:.4g} ms, {len(host.samples)} samples); latency "
        f"percentiles over {len(rounds.main_seconds)} samples (nearest rank); setup_s median "
        f"of scaled CPU s {[round(s, 4) for s in setup[0]]} (unscaled "
        f"{[round(s, 4) for s in setup[1]]}, wall {[round(s, 4) for s in setup[2]]})"
    )
    print(f"end-to-end metrics ({args.workload}):")
    for name, owner, metric in NAMED_METRICS:
        if owner in (None, args.workload):
            print(f"  {name:<22} {values[metric]:.6g} {units[metric]}")
        else:
            print(f"  {name:<22} n/a (measured by {owner})")
    print(f"unit latency of one {workload.unit}, unscaled, over every timed repeat (not bounded):")
    for name, unit in LATENCIES:
        print(f"  {name:<22} {values[name]:.6g} {unit}")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _per_layer(args, untraced, traced, tracer):
    """The per-layer metrics of a traced run, printed and returned."""
    import layers

    untraced_s = untraced.cpu_s
    traced_s = traced.cpu_s
    counts = traced.counts
    spans_path = os.path.join(OUTPUT_DIR, "traces", f"{args.workload}-seed{args.seed}.jsonl")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.write_spans(spans_path)
    per_layer = layers.layer_metrics(tracer, counts, untraced_s, traced_s)
    print(
        f"tracing overhead: traced {traced_s:.3f} s / untraced {untraced_s:.3f} s "
        f"= {traced_s / untraced_s:.3f}x; {len(tracer.spans)} spans in {spans_path}"
    )
    print(
        f"per-layer metrics ({args.workload}, {traced.timed} traced round(s) "
        f"after {1 + untraced.timed} untraced):"
    )
    for name, (value, unit) in per_layer.items():
        print(f"  {name:<30} {value:.6g} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in per_layer.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    _import_repro()
    if args.setup_probe:
        return _setup_probe(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}"
        )
    if WORKLOADS[args.workload].one_cpu:
        # Set before the set-up probes start, so that they inherit it.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    setup = _measure_setup(args) if args.trace == 0 else None
    workdir = _workdir()
    workload = None
    try:
        setup_start = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, workdir)
        calibrate.HOST = calibrate.HostSpeed(workload.reference)
        in_process_setup = time.perf_counter() - setup_start
        print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
        print(f"inputs: {workload.describe()}")
        print(f"set-up in this process after imports: {in_process_setup:.3f} s")
        if args.trace == 0:
            checked = [_timed(workload, args.seconds)]
        else:
            untraced, traced, tracer = _traced(workload)
            checked = [untraced, traced]
        first = checked[0].first
        attempted = sum(r.attempted for r in checked)
        failures = [f for r in checked for f in r.failures]
        checks, check_failures = workload.check(first)
        attempted += checks
        failures.extend(check_failures)
        fingerprint = workload.fingerprint(first)
    finally:
        calibrate.HOST.close()
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    print(
        "note: the simulator and the analyses are not validated against "
        "hardware, so no accuracy error figure is given"
    )
    for failure in failures[:20]:
        print(f"FAILED: {failure}")
    error_rate = len(failures) / attempted
    if args.trace == 0:
        metrics = _end_to_end(args, workload, checked[0], setup, error_rate)
    else:
        metrics = _per_layer(args, untraced, traced, tracer)
    print(f"error_rate {error_rate:.6g} ({len(failures)} of {attempted} operations failed)")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
