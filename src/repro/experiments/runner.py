"""Command-line front-end of the reproduction (``repro-experiments``).

The CLI is a thin layer over :mod:`repro.api`: experiments are discovered
through the decorator registry and executed through the cache-aware batch
engine.  Subcommands::

    repro-experiments run [NAMES...] [--quick] [--backend event] [--jobs N]
                          [--json -] [--csv F]
    repro-experiments list [--json]
    repro-experiments sweep --sizes 2,3,4 [--experiment table2] [--jobs N]
    repro-experiments export --cache-dir DIR [--json F] [--csv F] [NAMES...]

plus the analysis-service surface (:mod:`repro.service`)::

    repro-experiments serve [--port P] [--jobs N] [--store-dir DIR]
    repro-experiments submit [NAMES... | --experiment NAME --sizes 2,3]
                             [--quick] [--no-wait] [--json F] [--csv F]
    repro-experiments status HASH [HASH...]
    repro-experiments fetch [HASH...] [--json F] [--csv F]
    repro-experiments cache stats|clear [--store-dir DIR]

and the campaign surface (:mod:`repro.campaign` -- sharded, resumable,
blind-validated sweeps)::

    repro-experiments campaign run [NAMES... | --experiment NAME --sizes ...]
                          [--name TEXT] [--shard-size N] [--holdout N]
                          [--jobs N] [--store-dir DIR] [--fresh] [--json F]
    repro-experiments campaign resume ID [--jobs N] [--store-dir DIR] [--json F]
    repro-experiments campaign report ID [--store-dir DIR] [--json F]

``--backend`` selects the simulation backend (``cycle`` or ``event``) for
the experiments that drive the cycle-accurate simulator; both backends
produce identical results, ``event`` skips idle cycles and is much faster.
``--analysis`` selects the analysis backend (``regular``, ``weighted``,
``holistic``, ``trajectory``) for the experiments that accept one
(currently ``scenario_wctt``).

The pre-subcommand invocation style keeps working: ``repro-experiments
table2 fig2a``, ``repro-experiments --list`` and ``repro-experiments
--quick`` are rewritten to the equivalent subcommand form.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..analysis.backends import (
    available_analysis_backends,
    normalize_analysis_backend_name,
)
from ..analysis.reporting import format_key_values, format_table
from ..api import (
    BatchEngine,
    BatchJob,
    BatchResult,
    ExperimentResult,
    UnknownExperimentError,
    get_experiment,
    list_experiments,
)
from ..sim import available_backends, normalize_backend_name

__all__ = ["main", "run_experiment"]

_SUBCOMMANDS = (
    "run", "list", "sweep", "export", "serve", "submit", "status", "fetch",
    "cache", "campaign",
)


def run_experiment(name: str, *, quick: bool = False) -> str:
    """Run one experiment by name and return its textual report.

    Unknown names raise :class:`~repro.api.UnknownExperimentError` (a
    ``KeyError``) whose message lists close matches, e.g. ``tabel2`` suggests
    ``table2``.
    """
    return get_experiment(name).report_text(quick=quick)


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------
def _normalise_argv(argv: List[str]) -> List[str]:
    """Rewrite the legacy invocation style into subcommand form."""
    if not argv:
        return ["run"]
    if argv[0] in _SUBCOMMANDS or argv[0] in ("-h", "--help"):
        return argv
    if "--list" in argv:
        return ["list"]
    return ["run"] + argv


def _csv_ints(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _csv_floats(text: str) -> List[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _backend_name(text: str) -> str:
    """argparse type: resolve backend names and aliases, reject unknowns."""
    try:
        return normalize_backend_name(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))


def _add_backend_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", default=None, type=_backend_name, metavar="NAME",
        help=(
            "simulation backend for the simulating experiments "
            f"({', '.join(available_backends())}); results are identical, "
            "'event' skips idle cycles and is much faster"
        ),
    )


def _backend_params(name: str, backend: Optional[str]) -> Dict[str, Any]:
    """The run() params carrying ``--backend`` to experiments that accept it."""
    if backend is None:
        return {}
    spec = get_experiment(name)
    if not spec.supports_param("backend"):
        print(
            f"note: {name} does not simulate; --backend {backend} is ignored for it",
            file=sys.stderr,
        )
        return {}
    return {"backend": backend}


def _analysis_name(text: str) -> str:
    """argparse type: resolve analysis-backend names and aliases."""
    try:
        return normalize_analysis_backend_name(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))


def _add_analysis_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--analysis", default=None, type=_analysis_name, metavar="NAME",
        help=(
            "analysis backend for the experiments that accept one "
            f"({', '.join(available_analysis_backends())})"
        ),
    )


def _analysis_params(name: str, analysis: Optional[str]) -> Dict[str, Any]:
    """The run() params carrying ``--analysis`` to experiments that accept it."""
    if analysis is None:
        return {}
    spec = get_experiment(name)
    if not spec.supports_param("analysis"):
        print(
            f"note: {name} has a fixed analysis; --analysis {analysis} is "
            "ignored for it",
            file=sys.stderr,
        )
        return {}
    return {"analysis": analysis}


def _cli_params(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    """Merge every option-derived run() param for one experiment."""
    params = _backend_params(name, args.backend)
    params.update(_analysis_params(name, getattr(args, "analysis", None)))
    return params


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for parallel execution (default: 1)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist results as JSON keyed by config hash in DIR",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every design point even if cached",
    )


def _add_export_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write results as JSON to PATH ('-' for stdout)",
    )
    parser.add_argument(
        "--csv", default=None, metavar="PATH",
        help="write results as CSV to PATH ('-' for stdout)",
    )


def _add_service_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--host", default=None, metavar="HOST",
        help="daemon address (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=None, metavar="PORT",
        help="daemon port (default: 8537)",
    )
    parser.add_argument(
        "--timeout", type=float, default=300.0, metavar="SECONDS",
        help="per-request timeout (default: 300)",
    )


def _add_store_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="durable result store directory (default: ~/.cache/repro)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the tables and figures of the wormhole-mesh NoC paper.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="run experiments and print their reports / export their data"
    )
    run_parser.add_argument(
        "experiments", nargs="*", metavar="NAME",
        help="experiments to run (default: all); see 'list'",
    )
    run_parser.add_argument(
        "--quick", action="store_true",
        help="use smaller meshes / shorter simulations",
    )
    _add_backend_option(run_parser)
    _add_analysis_option(run_parser)
    _add_engine_options(run_parser)
    _add_export_options(run_parser)

    list_parser = subparsers.add_parser("list", help="list available experiments")
    list_parser.add_argument(
        "--json", action="store_true", help="machine-readable listing"
    )

    sweep_parser = subparsers.add_parser(
        "sweep", help="run one experiment over a parameter grid"
    )
    sweep_parser.add_argument(
        "--experiment", default="table2", metavar="NAME",
        help="experiment to sweep (default: table2)",
    )
    sweep_parser.add_argument(
        "--sizes", type=_csv_ints, default=None, metavar="N,N,...",
        help="mesh sizes to sweep, e.g. 2,3,4",
    )
    sweep_parser.add_argument(
        "--packet-flits", type=_csv_ints, default=None, metavar="N,N,...",
        help="maximum packet sizes to sweep, e.g. 1,4,8",
    )
    sweep_parser.add_argument(
        "--fault-rates", type=_csv_floats, default=None, metavar="R,R,...",
        help=(
            "per-link fault rates to sweep (reliability_sweep), "
            "e.g. 0,0.005,0.02"
        ),
    )
    sweep_parser.add_argument(
        "--trials", type=int, default=None, metavar="N",
        help="Monte-Carlo trials per design point (reliability_sweep)",
    )
    sweep_parser.add_argument(
        "--quick", action="store_true",
        help="apply the experiment's quick parameters to every design point",
    )
    _add_backend_option(sweep_parser)
    _add_analysis_option(sweep_parser)
    _add_engine_options(sweep_parser)
    _add_export_options(sweep_parser)

    export_parser = subparsers.add_parser(
        "export", help="re-export previously cached results as JSON/CSV"
    )
    export_parser.add_argument(
        "experiments", nargs="*", metavar="NAME",
        help="restrict the export to these experiments (default: all cached)",
    )
    export_parser.add_argument(
        "--cache-dir", required=True, metavar="DIR",
        help="cache directory written by 'run'/'sweep' --cache-dir",
    )
    _add_export_options(export_parser)

    serve_parser = subparsers.add_parser(
        "serve", help="run the persistent analysis daemon (repro.service)"
    )
    serve_parser.add_argument(
        "--host", default=None, metavar="HOST",
        help="address to bind (default: 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=None, metavar="PORT",
        help="port to bind (default: 8537; 0 binds an ephemeral port)",
    )
    serve_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes computing submitted jobs (default: 1)",
    )
    serve_parser.add_argument(
        "--batch-size", type=int, default=8, metavar="N",
        help="queued jobs fanned onto the worker pool at once (default: 8)",
    )
    _add_store_option(serve_parser)
    serve_parser.add_argument(
        "--no-store", action="store_true",
        help="serve fully in-memory (results die with the daemon)",
    )

    submit_parser = subparsers.add_parser(
        "submit", help="submit experiments or a sweep to a running daemon"
    )
    submit_parser.add_argument(
        "experiments", nargs="*", metavar="NAME",
        help="experiments to submit (or use --experiment with sweep axes)",
    )
    submit_parser.add_argument(
        "--experiment", default=None, metavar="NAME",
        help="experiment to sweep when axis options are given (default: table2)",
    )
    submit_parser.add_argument(
        "--sizes", type=_csv_ints, default=None, metavar="N,N,...",
        help="mesh sizes to sweep, e.g. 2,3,4",
    )
    submit_parser.add_argument(
        "--packet-flits", type=_csv_ints, default=None, metavar="N,N,...",
        help="maximum packet sizes to sweep, e.g. 1,4,8",
    )
    submit_parser.add_argument(
        "--fault-rates", type=_csv_floats, default=None, metavar="R,R,...",
        help="per-link fault rates to sweep (reliability_sweep)",
    )
    submit_parser.add_argument(
        "--trials", type=int, default=None, metavar="N",
        help="Monte-Carlo trials per design point (reliability_sweep)",
    )
    submit_parser.add_argument(
        "--quick", action="store_true",
        help="apply each experiment's quick parameters",
    )
    submit_parser.add_argument(
        "--no-wait", action="store_true",
        help="return tickets immediately instead of waiting for results",
    )
    _add_backend_option(submit_parser)
    _add_analysis_option(submit_parser)
    _add_service_options(submit_parser)
    _add_export_options(submit_parser)

    status_parser = subparsers.add_parser(
        "status", help="query job states on a running daemon"
    )
    status_parser.add_argument(
        "hashes", nargs="+", metavar="HASH",
        help="config hashes from submission tickets",
    )
    status_parser.add_argument(
        "--json", action="store_true", help="machine-readable states"
    )
    _add_service_options(status_parser)

    fetch_parser = subparsers.add_parser(
        "fetch", help="fetch completed results from a running daemon"
    )
    fetch_parser.add_argument(
        "hashes", nargs="*", metavar="HASH",
        help="config hashes to fetch (default: everything the daemon has)",
    )
    _add_service_options(fetch_parser)
    _add_export_options(fetch_parser)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or clear the durable result store"
    )
    cache_parser.add_argument(
        "action", choices=("stats", "clear"),
        help="'stats' summarises the store, 'clear' deletes entries",
    )
    _add_store_option(cache_parser)
    cache_parser.add_argument(
        "--experiment", default=None, metavar="NAME",
        help="restrict 'clear' to one experiment's entries",
    )
    cache_parser.add_argument(
        "--json", action="store_true", help="machine-readable stats"
    )

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="sharded, resumable, blind-validated sweeps (repro.campaign)",
    )
    campaign_sub = campaign_parser.add_subparsers(dest="action", required=True)

    campaign_run = campaign_sub.add_parser(
        "run", help="start (or resume) a campaign over experiments or a sweep"
    )
    campaign_run.add_argument(
        "experiments", nargs="*", metavar="NAME",
        help="experiments to campaign over (or use --experiment with axes)",
    )
    campaign_run.add_argument(
        "--experiment", default=None, metavar="NAME",
        help="experiment to sweep when axis options are given (default: table2)",
    )
    campaign_run.add_argument(
        "--sizes", type=_csv_ints, default=None, metavar="N,N,...",
        help="mesh sizes to sweep, e.g. 2,3,4",
    )
    campaign_run.add_argument(
        "--packet-flits", type=_csv_ints, default=None, metavar="N,N,...",
        help="maximum packet sizes to sweep, e.g. 1,4,8",
    )
    campaign_run.add_argument(
        "--fault-rates", type=_csv_floats, default=None, metavar="R,R,...",
        help="per-link fault rates to sweep (reliability_sweep)",
    )
    campaign_run.add_argument(
        "--trials", type=int, default=None, metavar="N",
        help="Monte-Carlo trials per design point (reliability_sweep)",
    )
    campaign_run.add_argument(
        "--quick", action="store_true",
        help="apply each experiment's quick parameters",
    )
    campaign_run.add_argument(
        "--name", default="campaign", metavar="TEXT",
        help="campaign name folded into the campaign ID (default: campaign)",
    )
    campaign_run.add_argument(
        "--shard-size", type=int, default=4, metavar="N",
        help="maximum design points per shard (default: 4)",
    )
    campaign_run.add_argument(
        "--holdout", type=int, default=1, metavar="N",
        help="held-out shards blind-validated before unblinding (default: 1)",
    )
    campaign_run.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes per shard (default: 1)",
    )
    campaign_run.add_argument(
        "--fresh", action="store_true",
        help="ignore existing checkpoints and recompute every shard",
    )
    _add_backend_option(campaign_run)
    _add_analysis_option(campaign_run)
    _add_store_option(campaign_run)
    campaign_run.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the full campaign report as JSON to PATH ('-' for stdout)",
    )

    campaign_resume = campaign_sub.add_parser(
        "resume", help="resume an interrupted campaign from its checkpoints"
    )
    campaign_resume.add_argument(
        "id", metavar="ID", help="campaign ID printed by 'campaign run'"
    )
    campaign_resume.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes per shard (default: 1)",
    )
    _add_store_option(campaign_resume)
    campaign_resume.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the full campaign report as JSON to PATH ('-' for stdout)",
    )

    campaign_report = campaign_sub.add_parser(
        "report", help="report a campaign's checkpoint state without executing"
    )
    campaign_report.add_argument(
        "id", metavar="ID", help="campaign ID printed by 'campaign run'"
    )
    _add_store_option(campaign_report)
    campaign_report.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the full campaign report as JSON to PATH ('-' for stdout)",
    )

    return parser


# ----------------------------------------------------------------------
# Output helpers
# ----------------------------------------------------------------------
def _write_exports(results: Sequence[BatchResult], args: argparse.Namespace) -> None:
    for path, render in ((args.json, BatchEngine.to_json), (args.csv, BatchEngine.to_csv)):
        if path is None:
            continue
        payload = render(results)
        if path == "-":
            print(payload)
        else:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(payload)
            print(f"wrote {len(results)} result(s) to {path}", file=sys.stderr)


def _exports_use_stdout(args: argparse.Namespace) -> bool:
    return args.json == "-" or args.csv == "-"


def _print_report(result: BatchResult) -> None:
    if not result.ok:
        # A captured worker failure: there is no payload to render.
        print(
            f"{result.job.experiment} [{result.config_hash}] failed: "
            f"{result.error}\n",
            file=sys.stderr,
        )
        return
    if result.result.from_cache:
        # Rebuilt from the JSON cache: the native payload (and with it the
        # exact paper-style rendering) is gone, render the rows directly.
        print(f"{result.job.experiment} [cached {result.config_hash}]")
        rows = result.result.rows()
        print(format_table(rows) if rows else "(no rows)")
        print()
        return
    spec = get_experiment(result.job.experiment)
    print(spec.report(result.result))
    source = "cache" if result.cached else f"{result.duration_seconds:.1f}s"
    print(f"\n[{result.job.experiment} completed in {source}]\n")


def _resolve_names(names: Sequence[str]) -> Optional[List[str]]:
    """Validate experiment names, printing near-miss errors; None on failure."""
    resolved = list(names) if names else [spec.name for spec in list_experiments()]
    failed = False
    for name in resolved:
        try:
            get_experiment(name)
        except UnknownExperimentError as error:
            print(str(error), file=sys.stderr)
            failed = True
    if failed:
        print("use 'repro-experiments list' to see the available experiments", file=sys.stderr)
        return None
    return resolved


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _make_engine(args: argparse.Namespace) -> Optional[BatchEngine]:
    try:
        return BatchEngine(
            jobs=args.jobs, cache_dir=args.cache_dir, use_cache=not args.no_cache
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return None


def _cmd_run(args: argparse.Namespace) -> int:
    names = _resolve_names(args.experiments)
    if names is None:
        return 2
    engine = _make_engine(args)
    if engine is None:
        return 2
    results = engine.run_many(
        [
            BatchJob(
                experiment=name,
                params=_cli_params(name, args),
                quick=args.quick,
            )
            for name in names
        ]
    )
    if not _exports_use_stdout(args):
        for result in results:
            _print_report(result)
    _write_exports(results, args)
    return 1 if any(not result.ok for result in results) else 0


def _cmd_list(args: argparse.Namespace) -> int:
    specs = list_experiments()
    if args.json:
        import json

        print(
            json.dumps(
                [
                    {
                        "name": spec.name,
                        "description": spec.description,
                        "paper_reference": spec.paper_reference,
                        "sweep_axes": sorted(spec.sweep_axes),
                    }
                    for spec in specs
                ],
                indent=2,
            )
        )
        return 0
    for spec in specs:
        print(f"{spec.name:12s} {spec.description}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        get_experiment(args.experiment)
    except UnknownExperimentError as error:
        print(str(error), file=sys.stderr)
        return 2
    axes: Dict[str, List[Any]] = {}
    if args.sizes:
        axes["size"] = args.sizes
    if args.packet_flits:
        axes["packet_flits"] = args.packet_flits
    if args.fault_rates:
        axes["fault_rate"] = args.fault_rates
    if args.trials is not None:
        axes["trials"] = [args.trials]
    if not axes:
        print(
            "sweep needs at least one axis "
            "(--sizes, --packet-flits, --fault-rates and/or --trials)",
            file=sys.stderr,
        )
        return 2
    engine = _make_engine(args)
    if engine is None:
        return 2
    try:
        results = engine.sweep(
            args.experiment,
            quick=args.quick,
            base_params=_cli_params(args.experiment, args),
            **axes,
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    if not _exports_use_stdout(args):
        print(
            format_table(
                [
                    {
                        "experiment": result.job.experiment,
                        "params": ", ".join(
                            f"{k}={v}" for k, v in sorted(result.job.params.items())
                        ),
                        "config hash": result.config_hash,
                        "cached": result.cached,
                        "rows": len(result.result.rows()),
                        "seconds": round(result.duration_seconds, 2),
                    }
                    for result in results
                ]
            )
        )
    _write_exports(results, args)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    engine = BatchEngine(cache_dir=args.cache_dir)
    results = engine.cached_results()
    if args.experiments:
        wanted = set(args.experiments)
        results = [r for r in results if r.job.experiment in wanted]
    if not results:
        print("no cached results matched", file=sys.stderr)
        return 1
    if args.json is None and args.csv is None:
        args.json = "-"
    _write_exports(results, args)
    return 0


# ----------------------------------------------------------------------
# Service subcommands (repro.service)
# ----------------------------------------------------------------------
def _make_client(args: argparse.Namespace):
    from ..service import DEFAULT_HOST, DEFAULT_PORT, ServiceClient

    return ServiceClient(
        host=args.host or DEFAULT_HOST,
        port=DEFAULT_PORT if args.port is None else args.port,
        timeout=args.timeout,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from ..service import DEFAULT_HOST, DEFAULT_PORT, ReproService

    try:
        service = ReproService(
            host=args.host or DEFAULT_HOST,
            port=DEFAULT_PORT if args.port is None else args.port,
            jobs=args.jobs,
            batch_size=args.batch_size,
            store_dir=args.store_dir,
            use_store=not args.no_store,
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2

    def _announce(svc) -> None:
        host, port = svc.address
        print(f"repro.service listening on {host}:{port}", flush=True)
        if svc.store is not None:
            print(f"durable result store: {svc.store.root}", flush=True)

    try:
        service.run(announce=_announce)
    except KeyboardInterrupt:
        pass
    except OSError as error:
        print(f"cannot start repro.service: {error}", file=sys.stderr)
        return 1
    return 0


def _build_submit_jobs(args: argparse.Namespace) -> Optional[List[BatchJob]]:
    """The jobs of one ``submit`` invocation (names or a sweep grid)."""
    axes: Dict[str, List[Any]] = {}
    if args.sizes:
        axes["size"] = args.sizes
    if args.packet_flits:
        axes["packet_flits"] = args.packet_flits
    if args.fault_rates:
        axes["fault_rate"] = args.fault_rates
    if args.trials is not None:
        axes["trials"] = [args.trials]
    if axes:
        if args.experiments:
            print(
                "submit takes either experiment NAMEs or sweep axes, not both",
                file=sys.stderr,
            )
            return None
        name = args.experiment or "table2"
        try:
            spec = get_experiment(name)
        except UnknownExperimentError as error:
            print(str(error), file=sys.stderr)
            return None
        base = _cli_params(name, args)
        names = list(axes)
        jobs: List[BatchJob] = []
        try:
            for combo in itertools.product(*(axes[n] for n in names)):
                params = dict(base)
                params.update(spec.params_for_axes(**dict(zip(names, combo))))
                jobs.append(BatchJob(experiment=name, params=params, quick=args.quick))
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return None
        return jobs
    if args.experiment is not None:
        print(
            "--experiment needs at least one sweep axis "
            "(--sizes, --packet-flits, --fault-rates and/or --trials)",
            file=sys.stderr,
        )
        return None
    resolved = _resolve_names(args.experiments)
    if resolved is None:
        return None
    return [
        BatchJob(experiment=name, params=_cli_params(name, args), quick=args.quick)
        for name in resolved
    ]


def _wire_batch_results(
    jobs: Sequence[BatchJob],
    tickets: Sequence[Dict[str, Any]],
    result_dicts: Sequence[Optional[Dict[str, Any]]],
) -> List[BatchResult]:
    """Rebuild BatchResults from a submit response (for _write_exports)."""
    results: List[BatchResult] = []
    for job, ticket, data in zip(jobs, tickets, result_dicts):
        if data is None:
            continue
        results.append(
            BatchResult(
                job=job,
                result=ExperimentResult.from_dict(data),
                config_hash=data.get("config_hash", ticket["hash"]),
                cached=bool(data.get("cached", False)),
                duration_seconds=float(data.get("duration_seconds", 0.0)),
            )
        )
    return results


def _cmd_submit(args: argparse.Namespace) -> int:
    from ..service import ServiceError

    jobs = _build_submit_jobs(args)
    if jobs is None:
        return 2
    client = _make_client(args)

    def _progress(event: Dict[str, Any]) -> None:
        print(
            f"[{event['completed']}/{event['total']}] "
            f"{event['hash']} {event['state']}",
            file=sys.stderr,
        )

    try:
        response = client.submit(
            jobs,
            wait=not args.no_wait,
            on_progress=None if args.no_wait else _progress,
        )
    except ServiceError as error:
        print(str(error), file=sys.stderr)
        return 1
    tickets = response["tickets"]
    if args.no_wait:
        print(
            format_table(
                [
                    {
                        "hash": t["hash"],
                        "experiment": t["experiment"],
                        "state": t["state"],
                        "source": t["source"],
                    }
                    for t in tickets
                ]
            )
        )
        print(
            "poll with 'repro-experiments status HASH...' and collect with "
            "'repro-experiments fetch'",
            file=sys.stderr,
        )
        return 0
    failed = [t for t in tickets if t["state"] == "failed"]
    for ticket in failed:
        print(
            f"{ticket['experiment']} [{ticket['hash']}] failed: "
            f"{ticket.get('error', 'unknown error')}",
            file=sys.stderr,
        )
    results = _wire_batch_results(jobs, tickets, response["results"])
    if not _exports_use_stdout(args):
        print(
            format_table(
                [
                    {
                        "experiment": result.job.experiment,
                        "params": ", ".join(
                            f"{k}={v}" for k, v in sorted(result.job.params.items())
                        ),
                        "config hash": result.config_hash,
                        "cached": result.cached,
                        "rows": len(result.result.rows()),
                        "seconds": round(result.duration_seconds, 2),
                    }
                    for result in results
                ]
            )
        )
    _write_exports(results, args)
    return 1 if failed else 0


def _cmd_status(args: argparse.Namespace) -> int:
    from ..service import ServiceError

    client = _make_client(args)
    try:
        states = client.status(args.hashes)
    except ServiceError as error:
        print(str(error), file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(states, indent=2))
    else:
        print(
            format_table(
                [
                    {
                        "hash": state["hash"],
                        "state": state["state"],
                        "detail": state.get("error") or state.get("source") or "",
                    }
                    for state in states
                ]
            )
        )
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    from ..service import ServiceError

    client = _make_client(args)
    try:
        fetched = client.fetch(args.hashes or None, all=not args.hashes)
    except ServiceError as error:
        print(str(error), file=sys.stderr)
        return 1
    for digest in fetched["missing"]:
        print(f"missing: {digest}", file=sys.stderr)
    results = [
        BatchResult(
            job=BatchJob(experiment=str(data.get("experiment", ""))),
            result=ExperimentResult.from_dict(data),
            config_hash=str(data.get("config_hash", "")),
            cached=True,
            duration_seconds=float(data.get("duration_seconds", 0.0)),
        )
        for data in fetched["results"]
    ]
    if not results:
        print("no results fetched", file=sys.stderr)
        return 1 if fetched["missing"] else 0
    if args.json is None and args.csv is None:
        args.json = "-"
    _write_exports(results, args)
    return 1 if fetched["missing"] else 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from ..service import ResultStore, StoreError

    try:
        store = ResultStore(args.store_dir)
    except StoreError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.action == "clear":
        removed = store.clear(experiment=args.experiment)
        scope = f" for {args.experiment}" if args.experiment else ""
        print(f"removed {removed} cached result(s){scope} from {store.root}")
        return 0
    stats = store.stats()
    if args.json:
        print(json.dumps(stats, indent=2))
        return 0
    by_experiment = stats.pop("by_experiment", {})
    stats.pop("hits", None)
    stats.pop("misses", None)
    stats.pop("hit_rate", None)
    print(format_key_values(stats))
    if by_experiment:
        print()
        print(
            format_table(
                [
                    {"experiment": name, "entries": count}
                    for name, count in sorted(by_experiment.items())
                ]
            )
        )
    return 0


# ----------------------------------------------------------------------
# Campaign subcommands (repro.campaign)
# ----------------------------------------------------------------------
def _emit_campaign_report(report, args: argparse.Namespace) -> None:
    if args.json is not None:
        payload = report.to_json()
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"wrote campaign report to {args.json}", file=sys.stderr)
    if args.json != "-":
        print(report.render())


def _execute_campaign(campaign, args: argparse.Namespace, *, resume: bool) -> int:
    from ..campaign import CampaignError, HoldoutViolation

    def _progress(shard, record) -> None:
        source = "resumed from store" if record.get("resumed") else "computed"
        print(f"{shard.describe()}: {source}", file=sys.stderr)

    try:
        report = campaign.run(resume=resume, progress=_progress)
    except HoldoutViolation as error:
        print(str(error), file=sys.stderr)
        print(
            "no blind shard was computed; fix the held-out failures and "
            "rerun with 'campaign resume'",
            file=sys.stderr,
        )
        return 3
    except CampaignError as error:
        print(str(error), file=sys.stderr)
        return 2
    _emit_campaign_report(report, args)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from ..campaign import Campaign, CampaignError
    from ..service import ResultStore, StoreError

    try:
        store = ResultStore(args.store_dir)
    except StoreError as error:
        print(str(error), file=sys.stderr)
        return 2

    if args.action == "run":
        jobs = _build_submit_jobs(args)
        if jobs is None:
            return 2
        try:
            campaign = Campaign(
                jobs,
                name=args.name,
                shard_size=args.shard_size,
                holdout=args.holdout,
                store=store,
                engine_jobs=args.jobs,
            )
        except CampaignError as error:
            print(str(error), file=sys.stderr)
            return 2
        print(campaign.describe(), file=sys.stderr)
        return _execute_campaign(campaign, args, resume=not args.fresh)

    try:
        campaign = Campaign.load(
            args.id, store=store, engine_jobs=getattr(args, "jobs", 1)
        )
    except CampaignError as error:
        print(str(error), file=sys.stderr)
        saved = Campaign.saved_campaigns(store)
        if saved:
            print(f"saved campaigns: {', '.join(saved)}", file=sys.stderr)
        return 2
    if args.action == "report":
        _emit_campaign_report(campaign.collect(), args)
        return 0
    return _execute_campaign(campaign, args, resume=True)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(_normalise_argv(argv))
    handlers: Dict[str, Callable[[argparse.Namespace], int]] = {
        "run": _cmd_run,
        "list": _cmd_list,
        "sweep": _cmd_sweep,
        "export": _cmd_export,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "fetch": _cmd_fetch,
        "cache": _cmd_cache,
        "campaign": _cmd_campaign,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
