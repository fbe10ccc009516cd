"""Single-device lifetime experiments (the §4 lifetime tournament).

Drives a functional device with a fixed-utilisation random-overwrite
workload until it dies (or shrinks below a usefulness floor), recording how
much host data it absorbed and how its capacity declined. All four device
types are driven through one harness so their lifetimes are directly
comparable — the quantity behind the paper's "up to 1.5x" claim and behind
the upgrade rates fed into the carbon/TCO models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import context
from repro.errors import ReproError
from repro.rng import make_rng
from repro.salamander.device import SalamanderSSD
from repro.workloads.generators import stamp_payload


@dataclass
class LifetimeResult:
    """Outcome of one write-until-death run.

    Attributes:
        host_writes: oPage writes the device absorbed before the end.
        death_cause: exception class name, or ``"capacity-floor"`` when the
            device shrank below ``capacity_floor_fraction``.
        initial_capacity_lbas / final_capacity_lbas: advertised size.
        capacity_curve: ``(host_writes, capacity_lbas)`` samples.
        mean_pec_at_death: wear actually extracted from the flash.
        stats: the device's final counter snapshot.
    """

    host_writes: int
    death_cause: str
    initial_capacity_lbas: int
    final_capacity_lbas: int
    capacity_curve: list[tuple[int, int]] = field(default_factory=list)
    mean_pec_at_death: float = 0.0
    stats: dict[str, float] = field(default_factory=dict)

    @property
    def capacity_fraction(self) -> float:
        if self.initial_capacity_lbas == 0:
            return 0.0
        return self.final_capacity_lbas / self.initial_capacity_lbas


def _capacity_lbas(device) -> int:
    if isinstance(device, SalamanderSSD):
        return device.advertised_lbas
    return getattr(device, "capacity_lbas", device.n_lbas)


def _issue_write(device, rng: np.random.Generator, utilization: float,
                 sequence: int) -> None:
    """One random overwrite within the utilisation discipline."""
    if isinstance(device, SalamanderSSD):
        active = device.active_minidisks()
        mdisk = active[int(rng.integers(0, len(active)))]
        hot = max(1, int(utilization * mdisk.size_lbas))
        lba = int(rng.integers(0, hot))
        device.write(mdisk.mdisk_id, lba,
                     stamp_payload(mdisk.flat_base + lba, sequence))
    else:
        capacity = _capacity_lbas(device)
        hot = max(1, int(utilization * capacity))
        lba = int(rng.integers(0, hot))
        device.write(lba, stamp_payload(lba, sequence))


def run_write_lifetime(
    device,
    *,
    utilization: float = 0.75,
    capacity_floor_fraction: float = 0.2,
    max_writes: int = 5_000_000,
    sample_every: int = 1000,
    seed: int | np.random.Generator | None = None,
) -> LifetimeResult:
    """Write random data at fixed utilisation until the device gives up.

    Args:
        device: a baseline, CVSS, or Salamander device (fresh).
        utilization: fraction of the (current) capacity holding live data.
            CVSS's lifetime famously depends on this (paper: ~20 % gain at
            50 % utilisation); the tournament sweeps it.
        capacity_floor_fraction: stop when advertised capacity falls below
            this fraction of the initial size (the operator replaces the
            drive) — also prevents degenerate buffer-only endgames.
        max_writes: hard safety stop.
        sample_every: capacity-curve sampling period, in host writes.
    """
    rng = make_rng(seed)
    # Bound once; the time axis for lifetime trajectories is *host
    # writes* (the quantity the paper's lifetime claims are over), not
    # simulated seconds — documented in docs/OBSERVABILITY.md.
    sampler = context.current().timeseries
    device_labels = {"device": getattr(device, "obs_name", "device")}

    def _record_trajectory(writes: int) -> None:
        if sampler is None:
            return
        t = float(writes)
        sampler.record("repro_lifetime_capacity_lbas", t,
                       float(_capacity_lbas(device)),
                       labels=device_labels, unit="lbas")
        record_smart = getattr(device, "record_smart", None)
        if record_smart is not None:
            record_smart(t, sampler)

    initial = _capacity_lbas(device)
    floor = capacity_floor_fraction * initial
    curve: list[tuple[int, int]] = [(0, initial)]
    _record_trajectory(0)
    writes = 0
    cause = "max-writes"
    while writes < max_writes:
        capacity = _capacity_lbas(device)
        if capacity < floor or capacity == 0:
            cause = "capacity-floor"
            break
        try:
            _issue_write(device, rng, utilization, writes)
        except ReproError as error:
            cause = type(error).__name__
            break
        writes += 1
        if writes % sample_every == 0:
            curve.append((writes, _capacity_lbas(device)))
            _record_trajectory(writes)
    final = _capacity_lbas(device)
    curve.append((writes, final))
    _record_trajectory(writes)
    wear = device.chip.wear_summary()
    return LifetimeResult(
        host_writes=writes,
        death_cause=cause,
        initial_capacity_lbas=initial,
        final_capacity_lbas=final,
        capacity_curve=curve,
        mean_pec_at_death=wear["mean_pec"],
        stats=device.stats.snapshot(),
    )
