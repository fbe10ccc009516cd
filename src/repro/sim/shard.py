"""Failure-domain shards for process-parallel fleet runs.

:func:`repro.sim.parallel` parallelises *across* runs (one task per
(config, mode, seed)); this module parallelises *inside* one run. When
``FleetConfig.shards`` is above one, :func:`repro.sim.fleet.simulate_fleet`
cuts the device population into contiguous **failure-domain shards**
(:func:`partition_devices`), runs one :class:`ShardTask` per shard
through the fork pool and merges the outputs with
:func:`repro.sim.fleet.merge_ranges`. A task is a pure function of its
fields: :func:`run_shard_task` rebuilds the RNG from the seed and calls
the same step loop (:func:`repro.sim.fleet.run_device_range`) an
in-process run uses, so the result is bit-identical for any ``--jobs``
value at a fixed shard count (docs/SHARDING.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.flash.rber import RBERModel
from repro.rng import make_rng
from repro.sim.fleet import (
    FleetConfig,
    FleetRules,
    RangeOutput,
    run_device_range,
)


def partition_devices(devices: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous balanced shard layout: ``[start, stop)`` per shard.

    The first ``devices % shards`` shards take one extra device. When
    ``shards > devices`` the tail shards are empty ``(k, k)`` ranges —
    legal by construction (an empty shard contributes zeros to every
    merge), so callers never need to special-case small fleets.
    Contiguity is what makes the shard-major merge *order-preserving*:
    walking shards in order visits devices in index order.
    """
    if devices < 0:
        raise ConfigError(f"devices must be non-negative, got {devices!r}")
    if shards < 1:
        raise ConfigError(f"shards must be >= 1, got {shards!r}")
    base, extra = divmod(devices, shards)
    layout: list[tuple[int, int]] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        layout.append((start, start + size))
        start += size
    return layout


@dataclass(frozen=True)
class ShardTask:
    """One shard's work order, picklable for fork-pool dispatch.

    ``pending`` is the coordinator-computed timeseries sample schedule
    (one bool per step), so every shard produces census and wear
    material for exactly the sampled steps. ``timing`` asks for
    per-step wall clocks (only when the coordinator has metrics
    enabled).
    """

    config: FleetConfig
    mode: str
    seed: int
    start: int
    stop: int
    pending: tuple[bool, ...]
    timing: bool = False
    rber_model: RBERModel | None = None


def run_shard_task(task: ShardTask) -> RangeOutput:
    """Worker entry point: step one shard's device range."""
    rules = FleetRules(task.config, task.mode, task.rber_model)
    return run_device_range(rules, make_rng(task.seed), task.start,
                            task.stop, task.pending, task.timing)


__all__ = [
    "ShardTask",
    "partition_devices",
    "run_shard_task",
]
