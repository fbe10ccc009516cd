"""The run context: every optional sidecar a run carries, in one place.

A run may attach up to seven sidecars to the stack it builds — a
metrics registry, a sim-time tracer, a periodic timeseries sampler, a
fault injector, a request tracer, an endurance ledger and an SLO
engine. :class:`RunContext` holds them; a field that is ``None`` is
off, and that is the only meaning "disabled" has anywhere in the repo.

This module owns the one process-global the simulator keeps: the
current context. Layers read it **once, at construction**, and keep
the fields they need::

    ctx = context.current()
    self._faults = ctx.faults                # None unless bound
    ...
    if self._faults is not None:             # zero-cost when off
        self._faults.crash_if("gc.pre_erase", block=victim)

so the disabled hot path is a single ``is None`` test. Bind sidecars
*before* building the objects that should see them::

    from repro import context
    from repro.obs import MetricsRegistry, SimTimeTracer

    with context.bound(metrics=MetricsRegistry(),
                       tracer=SimTimeTracer()) as ctx:
        device = SalamanderSSD(...)          # binds ctx's sidecars
        ...                                  # run
    ctx.metrics.write_json("metrics.json")

:func:`bound` layers its fields over the current context (pass
``field=None`` to switch one off for the scope) and restores the
previous context on exit. Pool workers start with :func:`reset`, so a
forked child never reuses its parent's sidecars.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector
    from repro.obs.endurance import EnduranceLedger
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.reqtrace import ReqTracer
    from repro.obs.slo import SLOEngine
    from repro.obs.timeseries import TimeseriesSampler
    from repro.obs.trace import SimTimeTracer


@dataclass(frozen=True)
class RunContext:
    """The sidecars a run attaches to the stack; ``None`` means off."""

    metrics: MetricsRegistry | None = None
    tracer: SimTimeTracer | None = None
    timeseries: TimeseriesSampler | None = None
    faults: FaultInjector | None = None
    reqtrace: ReqTracer | None = None
    endurance: EnduranceLedger | None = None
    slo: SLOEngine | None = None


#: The context with every sidecar off — the default.
EMPTY = RunContext()

_current = EMPTY


def current() -> RunContext:
    """The context the objects built now should bind."""
    return _current


@contextmanager
def bound(**sidecars) -> Iterator[RunContext]:
    """Bind ``sidecars`` over the current context for the scope.

    Yields the new context; the previous one is restored on exit.
    Unknown field names raise :class:`TypeError`.
    """
    global _current
    previous = _current
    _current = replace(previous, **sidecars)
    try:
        yield _current
    finally:
        _current = previous


def reset() -> None:
    """Drop every sidecar: the initializer of each pool worker."""
    global _current
    _current = EMPTY


__all__ = ["EMPTY", "RunContext", "bound", "current", "reset"]
