"""Decorator-based experiment registry.

Each experiment module registers its ``run()`` function with::

    @experiment(
        "table2",
        description="Table II -- WCTT scaling with mesh size",
        paper_reference="Table II",
        quick_params={"sizes": (2, 3, 4)},
    )
    def run(*, sizes=(2, 3, 4, 5, 6, 7, 8), ...):
        ...

The decorator wraps the function so it returns an
:class:`~repro.api.results.ExperimentResult` (carrying the call parameters
and the paper reference) and records an :class:`ExperimentSpec` in the global
registry, which the CLI and the batch engine use for discovery.
"""

from __future__ import annotations

import difflib
import functools
import importlib
import inspect
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from .results import ExperimentResult, unwrap

__all__ = [
    "ExperimentSpec",
    "UnknownExperimentError",
    "experiment",
    "get_experiment",
    "list_experiments",
    "discover",
]

#: Axis name -> (value -> run() kwargs) translators, per experiment; used by
#: the engine's sweep support (see the ``sweep_axes`` decorator argument).
AxisMap = Mapping[str, Callable[[Any], Dict[str, Any]]]

_REGISTRY: Dict[str, "ExperimentSpec"] = {}


class UnknownExperimentError(KeyError):
    """Raised for unknown experiment names, with near-miss suggestions."""

    def __init__(self, name: str, known: List[str]) -> None:
        message = f"unknown experiment {name!r}"
        matches = difflib.get_close_matches(name, known, n=3, cutoff=0.4)
        if matches:
            message += f"; did you mean {', '.join(matches)}?"
        message += f" (known experiments: {', '.join(sorted(known))})"
        super().__init__(message)
        self.name = name
        self.suggestions = matches

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: metadata plus the run/report callables."""

    name: str
    description: str
    paper_reference: str
    runner: Callable[..., ExperimentResult]
    module: str
    quick_params: Mapping[str, Any] = field(default_factory=dict)
    sweep_axes: AxisMap = field(default_factory=dict)

    def run(self, *, quick: bool = False, **params: Any) -> ExperimentResult:
        """Run the experiment; ``quick`` merges in the registered fast params.

        Explicit ``params`` override the quick defaults.
        """
        merged: Dict[str, Any] = dict(self.quick_params) if quick else {}
        merged.update(params)
        return self.runner(**merged)

    def report(self, result: Optional[ExperimentResult] = None, **kwargs: Any) -> str:
        """Render the module's textual report for ``result`` (or a fresh run)."""
        module = importlib.import_module(self.module)
        report_fn = getattr(module, "report")
        if result is None:
            return report_fn(**kwargs)
        return report_fn(unwrap(result), **kwargs)

    def report_text(self, *, quick: bool = False, **params: Any) -> str:
        """Run and render in one step (the legacy ``run_experiment`` shape)."""
        return self.report(self.run(quick=quick, **params))

    def supports_param(self, name: str) -> bool:
        """True when the experiment's ``run()`` accepts keyword ``name``.

        Used by the CLI to forward cross-cutting options (e.g. ``--backend``)
        only to the experiments that understand them.
        """
        try:
            signature = inspect.signature(self.runner)
        except (TypeError, ValueError):  # pragma: no cover - defensive
            return False
        parameters = signature.parameters
        if name in parameters:
            return True
        return any(
            p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
        )

    def params_for_axes(self, **axes: Any) -> Dict[str, Any]:
        """Translate sweep-axis values into run() keyword arguments."""
        params: Dict[str, Any] = {}
        for axis, value in axes.items():
            translate = self.sweep_axes.get(axis)
            if translate is None:
                known = ", ".join(sorted(self.sweep_axes)) or "none"
                raise ValueError(
                    f"experiment {self.name!r} cannot sweep axis {axis!r} "
                    f"(supported axes: {known})"
                )
            params.update(translate(value))
        return params


def experiment(
    name: str,
    *,
    description: str,
    paper_reference: str = "",
    quick_params: Optional[Mapping[str, Any]] = None,
    sweep_axes: Optional[AxisMap] = None,
) -> Callable[[Callable[..., Any]], Callable[..., ExperimentResult]]:
    """Register an experiment ``run()`` function under ``name``.

    The wrapped function returns an :class:`ExperimentResult` whose payload
    is whatever the original function returned (already-wrapped results pass
    through untouched, so decorating an ExperimentResult-returning function
    is also fine).
    """

    def decorate(fn: Callable[..., Any]) -> Callable[..., ExperimentResult]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> ExperimentResult:
            payload = fn(*args, **kwargs)
            if isinstance(payload, ExperimentResult):
                return payload
            return ExperimentResult(
                experiment=name,
                payload=payload,
                params=dict(kwargs),
                paper_reference=paper_reference,
                description=description,
            )

        spec = ExperimentSpec(
            name=name,
            description=description,
            paper_reference=paper_reference,
            runner=wrapper,
            module=fn.__module__,
            quick_params=dict(quick_params or {}),
            sweep_axes=dict(sweep_axes or {}),
        )
        _REGISTRY[name] = spec
        wrapper.spec = spec  # type: ignore[attr-defined]
        return wrapper

    return decorate


def get_experiment(name: str) -> ExperimentSpec:
    """Look up one experiment by name (raises :class:`UnknownExperimentError`)."""
    discover()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownExperimentError(name, list(_REGISTRY)) from None


def list_experiments() -> List[ExperimentSpec]:
    """All registered experiments, sorted by name."""
    discover()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def discover() -> None:
    """Import the experiment modules so their decorators register themselves."""
    if "repro.experiments" not in sys.modules:
        importlib.import_module("repro.experiments")
