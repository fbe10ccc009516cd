"""Deterministic, seed-driven fault injection for the whole stack.

A fault injector is the ``faults`` field of the run context
(:mod:`repro.context`): every layer *binds it at construction* and
consults it only when non-None, so the hooks are a single attribute
test on the hot path and provably free when no injector is bound.

Usage (typically once, at harness start, **before** building devices)::

    from repro import context
    from repro.faults import FaultInjector, FaultPlan, FaultSpec

    plan = FaultPlan((FaultSpec("gc.pre_erase", "crash", when=3),))
    with context.bound(faults=FaultInjector(plan)) as ctx:
        device = SalamanderSSD(...)   # binds the injector
        ...                           # run; PowerLossError fires at hit 3
    print(ctx.faults.summary())

The crash-and-remount driver in :mod:`repro.faults.harness` catches the
resulting :class:`~repro.errors.PowerLossError` and rebuilds the device
from durable state, which is what the crash-consistency fuzz harness
(tests/faults/) loops on. See docs/FAULTS.md for the fault taxonomy,
the injection-site registry and the ``repro.faults/v1`` plan schema.
"""

from __future__ import annotations

from repro.faults.injector import FaultInjector, FiredFault
from repro.faults.plan import (
    CRASH_SITES,
    FAULTS_SCHEMA,
    SITES,
    FaultPlan,
    FaultSpec,
    validate_fault_document,
)

__all__ = [
    "CRASH_SITES",
    "FAULTS_SCHEMA",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FiredFault",
    "SITES",
    "validate_fault_document",
]
