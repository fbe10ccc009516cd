"""Determinism contract of sharded fleet runs.

Every fleet run goes through one step loop
(:func:`repro.sim.fleet.run_device_range`) and one merge; the shard
count only picks the device-range layout. The headline properties
(docs/SHARDING.md):

* the whole-fleet run (``shards=1``) matches digests pinned from the
  previous, independent serial loop, so bit-exactness does not rest
  on comparing the one loop with itself;
* a *fixed* shard count is bit-identical across ``jobs``;
* every shard count keeps the integer series exact and the float
  series within tolerance, and satisfies the accounting identities
  between ``functioning``, ``death_day`` and ``capacity_lost_bytes``.

Everything else here (partition layout, fault-plan fallback,
telemetry equivalence) is a supporting lemma.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro import context
from repro.errors import ConfigError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.flash.geometry import FlashGeometry
from repro.obs import MetricsRegistry, SimTimeTracer, TimeseriesSampler
from repro.sim.fleet import (
    MODES,
    FleetConfig,
    FleetRules,
    merge_ranges,
    simulate_fleet,
)
from repro.sim.shard import ShardTask, partition_devices, run_shard_task

TINY_CONFIG = FleetConfig(
    devices=13,
    geometry=FlashGeometry(blocks=16, fpages_per_block=16),
    pec_limit_l0=300.0,
    variation_sigma=0.35,
    dwpd=2.0,
    write_amplification=2.0,
    afr=0.02,
    horizon_days=730,
    step_days=10,
)

_ARRAYS = ("days", "functioning", "capacity_bytes",
           "capacity_lost_bytes", "death_day")

#: SHA-256 of :func:`_digest` for ``TINY_CONFIG`` at seed 77, computed
#: with the separate serial step loop that preceded the shared kernel.
GOLDEN_DIGESTS = {
    "baseline":
        "1e4c685c207fbcef223634a5eff6798d7df251f4cdb86f136873ab21612d7a7c",
    "cvss":
        "00fa58f7627ea56662ee577ade61d0ef81cd6971eb47dcceaa3edf41e3decb2a",
    "shrink":
        "5deee8a121878675051efc85d6f01fd082ebd833a1a280a85032279702c7eb3d",
    "regen":
        "7bc8657ab979ca685d53059c9e46f2317247cbb055785ea09ac34d0b245390bc",
}

SHARD_COUNTS = (1, 2, 3, 8, 20)  # 20 > 13 devices: empty tail shards


def _digest(result) -> str:
    """SHA-256 over every result array's name, dtype and bytes."""
    h = hashlib.sha256()
    for name in _ARRAYS:
        array = np.ascontiguousarray(getattr(result, name))
        h.update(name.encode())
        h.update(array.dtype.str.encode())
        h.update(array.tobytes())
    h.update(repr(float(result.initial_capacity_bytes)).encode())
    return h.hexdigest()


def _sharded(shards: int, config: FleetConfig = TINY_CONFIG) -> FleetConfig:
    return replace(config, shards=shards)


def _assert_bit_identical(a, b):
    for name in _ARRAYS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.initial_capacity_bytes == b.initial_capacity_bytes
    assert a.mode == b.mode


class TestPartition:
    def test_balanced_contiguous(self):
        assert partition_devices(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_single_shard_is_whole_fleet(self):
        assert partition_devices(7, 1) == [(0, 7)]

    def test_shards_exceed_devices_yields_empty_tails(self):
        # Empty shards are legal: they contribute zeros to every merge.
        assert partition_devices(3, 5) == [
            (0, 1), (1, 2), (2, 3), (3, 3), (3, 3)]

    def test_covers_every_device_exactly_once(self):
        layout = partition_devices(17, 4)
        seen = [i for start, stop in layout for i in range(start, stop)]
        assert seen == list(range(17))

    def test_invalid_shards_rejected(self):
        with pytest.raises(ConfigError):
            partition_devices(4, 0)
        with pytest.raises(ConfigError):
            partition_devices(-1, 2)


class TestSerialEquivalence:
    @pytest.mark.parametrize("mode", MODES)
    def test_single_shard_is_bit_identical(self, mode):
        # The whole-fleet range reproduces the pinned serial digests.
        result = simulate_fleet(TINY_CONFIG, mode, seed=77)
        assert _digest(result) == GOLDEN_DIGESTS[mode]

    def test_empty_shards_merge_to_serial(self):
        # shards > devices: the empty tail shards must not perturb
        # anything — integer series stay exact against serial.
        serial = simulate_fleet(TINY_CONFIG, "shrink", seed=77)
        sharded = simulate_fleet(_sharded(TINY_CONFIG.devices + 7),
                                 "shrink", seed=77, jobs=2)
        assert np.array_equal(serial.functioning, sharded.functioning)
        assert np.array_equal(serial.death_day, sharded.death_day)
        assert np.allclose(serial.capacity_bytes, sharded.capacity_bytes)

    @pytest.mark.parametrize("mode", MODES)
    def test_cross_shard_float_tolerance(self, mode):
        # Different shard counts reorder the capacity partial sums:
        # integers exact, floats allclose — the documented contract.
        serial = simulate_fleet(TINY_CONFIG, mode, seed=77)
        sharded = simulate_fleet(_sharded(3), mode, seed=77)
        assert np.array_equal(serial.functioning, sharded.functioning)
        assert np.array_equal(serial.death_day, sharded.death_day)
        assert np.allclose(serial.capacity_bytes, sharded.capacity_bytes)
        assert np.allclose(serial.capacity_lost_bytes,
                           sharded.capacity_lost_bytes)


class TestShardCountProperties:
    """Spec properties every shard layout must satisfy, per mode."""

    @staticmethod
    def _run(shards, mode, **kwargs):
        return simulate_fleet(_sharded(shards), mode, seed=77, **kwargs)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_functioning_counts_survivors(self, shards, mode):
        result = self._run(shards, mode)
        dead = (result.death_day[None, :] <= result.days[:, None]).sum(axis=1)
        assert np.array_equal(result.functioning,
                              TINY_CONFIG.devices - dead)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_capacity_lost_is_step_decrease(self, shards, mode):
        result = self._run(shards, mode)
        previous = np.concatenate(([result.initial_capacity_bytes],
                                   result.capacity_bytes[:-1]))
        expected = np.maximum(0.0, previous - result.capacity_bytes)
        assert np.array_equal(result.capacity_lost_bytes, expected)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_integer_series_exact_across_shard_counts(self, shards, mode):
        whole = self._run(1, mode)
        sharded = self._run(shards, mode)
        assert np.array_equal(whole.days, sharded.days)
        assert np.array_equal(whole.functioning, sharded.functioning)
        assert np.array_equal(whole.death_day, sharded.death_day)
        assert np.allclose(whole.capacity_bytes, sharded.capacity_bytes)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_fault_plan_injects_exactly_the_planned_deaths(self, shards):
        # LOSS_PLAN kills the first two devices alive entering step 3
        # (day 30); device losses draw no randomness, so every other
        # device keeps its fault-free death day.
        clean = self._run(shards, "shrink")
        injector = FaultInjector(LOSS_PLAN)
        with (pytest.warns(RuntimeWarning) if shards > 1
              else contextlib.nullcontext()):
            faulty = self._run(shards, "shrink", faults=injector)
        day = 3 * TINY_CONFIG.step_days
        victims = [i for i in range(TINY_CONFIG.devices)
                   if clean.death_day[i] > day - TINY_CONFIG.step_days][:2]
        assert len(victims) == 2
        expected = clean.death_day.astype(float)
        expected[victims] = day
        assert np.array_equal(faulty.death_day, expected)
        assert injector.summary()["fired"] == {"fleet.step:device_loss": 1}


class TestJobsInvariance:
    @pytest.mark.parametrize("jobs", [2, 8])
    def test_fixed_shards_bit_identical_across_jobs(self, jobs):
        base = simulate_fleet(_sharded(3), "regen", seed=77, jobs=1)
        other = simulate_fleet(_sharded(3), "regen", seed=77, jobs=jobs)
        _assert_bit_identical(base, other)

    def test_worker_slice_matches_inprocess(self):
        # One shard task run in-process equals its slice of the layout —
        # the pure-function property the fork pool relies on.
        steps = int(np.ceil(TINY_CONFIG.horizon_days
                            / TINY_CONFIG.step_days))
        pending = (False,) * steps
        whole = run_shard_task(ShardTask(
            TINY_CONFIG, "shrink", 77, 0, TINY_CONFIG.devices, pending))
        parts = [run_shard_task(ShardTask(
            TINY_CONFIG, "shrink", 77, start, stop, pending))
            for start, stop in partition_devices(TINY_CONFIG.devices, 4)]
        assert np.array_equal(
            whole.functioning,
            np.sum([p.functioning for p in parts], axis=0))
        assert np.array_equal(
            whole.death_day,
            np.concatenate([p.death_day for p in parts]))


class TestValidation:
    def test_config_shards_validated(self):
        with pytest.raises(ConfigError):
            FleetConfig(shards=0)

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            simulate_fleet(_sharded(3), "warp", seed=1)

    def test_generator_seed_rejected(self):
        # Workers replay the RNG walk from an int seed; only a sharded
        # run needs one.
        with pytest.raises(ConfigError):
            simulate_fleet(_sharded(3), "shrink",
                           seed=np.random.default_rng(1))
        simulate_fleet(TINY_CONFIG, "shrink", seed=np.random.default_rng(1))

    def test_config_shards_default_used(self):
        # config.shards alone picks the layout: the run equals merging
        # the shard tasks of that layout by hand.
        config = _sharded(3)
        via_config = simulate_fleet(config, "shrink", seed=77)
        rules = FleetRules(config, "shrink")
        pending = (False,) * rules.steps
        outputs = [run_shard_task(ShardTask(config, "shrink", 77,
                                            start, stop, pending))
                   for start, stop in partition_devices(config.devices, 3)]
        _assert_bit_identical(via_config,
                              merge_ranges(rules, outputs, pending))


LOSS_PLAN = FaultPlan(events=(
    FaultSpec(site="fleet.step", fault="device_loss", when=3,
              args={"devices": 2}),
))


class TestFaultFallback:
    def test_fault_plan_falls_back_to_serial(self):
        serial = simulate_fleet(TINY_CONFIG, "shrink", seed=77,
                                faults=LOSS_PLAN)
        with pytest.warns(RuntimeWarning, match="fault plan"):
            sharded = simulate_fleet(_sharded(3), "shrink", seed=77,
                                     faults=LOSS_PLAN, jobs=2)
        _assert_bit_identical(serial, sharded)

    def test_installed_injector_falls_back(self):
        plan = FaultPlan(events=(
            FaultSpec(site="fleet.step", fault="device_loss", when=3,
                      args={"devices": 1}),
        ))
        with context.bound(faults=FaultInjector(plan)):
            with pytest.warns(RuntimeWarning, match="fault plan"):
                sharded = simulate_fleet(_sharded(2), "shrink", seed=77)
        serial = simulate_fleet(TINY_CONFIG, "shrink", seed=77,
                                faults=plan)
        _assert_bit_identical(serial, sharded)


class TestTelemetryEquivalence:
    def _run(self, shards, jobs=1):
        registry, tracer = MetricsRegistry(), SimTimeTracer()
        sampler = TimeseriesSampler(registry=registry, cadence=30.0)
        with context.bound(metrics=registry, tracer=tracer,
                           timeseries=sampler):
            simulate_fleet(_sharded(shards), "regen", seed=77, jobs=jobs)
        document = sampler.to_dict()
        records = [r.to_json() for r in tracer.records()]
        return document, records

    @staticmethod
    def _sim_pure(document):
        # Wall-clock series are execution-dependent even serial-vs-
        # serial, and the shard instruments exist only when sharded;
        # everything else must match.
        document = copy.deepcopy(document)
        document["series"] = [
            s for s in document["series"]
            if "duration_seconds" not in s["name"]
            and not s["name"].startswith("repro_shard_")]
        return document

    def test_timeseries_and_trace_match_serial(self):
        # Across shard counts the trace (deaths: integer device ids and
        # days) is exact and every series has the same sample times;
        # float values agree to tolerance.
        ts_serial, trace_serial = self._run(1)
        ts_sharded, trace_sharded = self._run(3)
        assert trace_serial == trace_sharded
        serial = self._sim_pure(ts_serial)["series"]
        sharded = self._sim_pure(ts_sharded)["series"]
        assert [(s["name"], s["labels"], s["t"]) for s in serial] \
            == [(s["name"], s["labels"], s["t"]) for s in sharded]
        for a, b in zip(serial, sharded):
            assert np.allclose(a["v"], b["v"]), a["name"]

    def test_timeseries_jobs_invariant(self):
        ts_one, trace_one = self._run(3, jobs=1)
        ts_two, trace_two = self._run(3, jobs=2)
        assert self._sim_pure(ts_one) == self._sim_pure(ts_two)
        assert trace_one == trace_two

    def test_shard_metrics_exported(self):
        registry = MetricsRegistry()
        with context.bound(metrics=registry):
            simulate_fleet(_sharded(3), "shrink", seed=77, jobs=1)
            names = {family["name"]
                     for family in registry.to_dict()["metrics"]}
        assert "repro_shard_tick_seconds" in names
        assert "repro_shard_merge_seconds" in names
        assert "repro_shard_devices" in names
