"""The three benchmark workloads.

Each workload turns the benchmark seed into its inputs, builds its
fixture, runs one *unit* of work through a public entry point of
``repro`` and checks the unit's outputs against invariants. A run
repeats the unit with identical inputs, so every unit of a run must
produce the same simulation digest.

Library entry points are looked up through their modules at call time
(``engine.run_cell``, not a name bound at import), so the traced run's
wrappers, installed after this module is imported, see every call.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

import repro.difs.cluster as difs_cluster
import repro.errors as repro_errors
import repro.sim.fleet as fleet
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.tiredness import TirednessPolicy, calibrate_power_law
from repro.salamander.device import SalamanderConfig, SalamanderSSD
from repro.ssd.ftl import FTLConfig
from repro.workloads import engine

MIB = 2**20


def derive_seed(seed: int, label: str) -> int:
    """A 31-bit seed for one input stream of one workload."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def sha256_json(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class UnitResult:
    """What one unit of work produced.

    ``ops`` counts the workload's operations and ``failed`` those that
    raised an error the workload does not expect. ``samples`` holds one
    ``(start, seconds, ops)`` triple per timed piece of the unit, on the
    run's clock: one per op where ops are timed singly, else one per
    library call. ``outputs`` holds the simulated results the checks and
    the digest read.
    """

    ops: int
    failed: int
    samples: list[tuple[float, float, int]]
    outputs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Host time of the unit's timed pieces."""
        return sum(seconds for _start, seconds, _ops in self.samples)


class TrafficRead:
    """One open-loop traffic cell on a flat device, read-mostly."""

    name = "traffic_read"
    unit_consumes_fixture = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cell_seed = derive_seed(seed, self.name)
        self.config = engine.EngineConfig(
            tenants=32, cells=1, duration_us=4_000_000.0,
            arrival="poisson", utilisation=0.8, read_fraction=0.9,
            admission="defer", mode="flat")

    def setup(self):
        # run_cell builds its device, prefills it and probes it before
        # the first arrival; a horizon shorter than any inter-arrival
        # gap runs exactly that fixture work and no traffic.
        probe = replace(self.config, duration_us=1.0)
        engine.run_cell(probe, 0, self.cell_seed)
        return None

    def run(self, fixture, clock, mark_op=None) -> UnitResult:
        start = clock()
        result = engine.run_cell(self.config, 0, self.cell_seed)
        seconds = clock() - start
        queue = result["queue"]
        ops = queue["dispatched"]
        return UnitResult(ops=ops, failed=queue["errors"],
                          samples=[(start, seconds, max(1, ops))],
                          outputs={"cell": result})

    def check(self, outputs) -> list[str]:
        cell = outputs["cell"]
        problems = []
        for row in cell["tenants"]:
            if row["offered"] != row["admitted"] + row["shed"]:
                problems.append(
                    f"tenant {row['tenant']}: offered {row['offered']} != "
                    f"admitted {row['admitted']} + shed {row['shed']}")
            if row["errors"]:
                problems.append(
                    f"tenant {row['tenant']}: {row['errors']} errors")
        if cell["queue"]["errors"]:
            problems.append(f"{cell['queue']['errors']} queue errors")
        if not cell["window"]["requests"]:
            problems.append("no traffic-window requests completed")
        return problems

    def digest(self, outputs) -> str:
        return sha256_json(outputs["cell"])

    def outcome_metrics(self, outputs) -> dict:
        cell = outputs["cell"]
        offered = sum(row["offered"] for row in cell["tenants"])
        admitted = sum(row["admitted"] for row in cell["tenants"])
        return {
            "sim_p99_latency_us": (cell["window"]["p99_latency_us"], "us"),
            "workloads.offered": (offered, "count"),
            "workloads.admitted_ratio": (admitted / offered
                                         if offered else 0.0, "ratio"),
        }


class DifsWearout:
    """A closed-loop client rewriting chunks on a wearing RegenS diFS."""

    name = "difs_wearout"
    unit_consumes_fixture = True
    nodes = 8
    chunks = 40
    #: Rounds per unit. Wear-out starts near round 4000 and the cluster
    #: runs out of live volumes after about round 6500; 5500 rounds see
    #: a few dozen decommissions and regenerations with no data at risk.
    rounds = 5500

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cluster_seed = derive_seed(seed, f"{self.name}/cluster")
        self.chip_seeds = [derive_seed(seed, f"{self.name}/chip{n}")
                           for n in range(self.nodes)]
        rng = np.random.default_rng(derive_seed(seed, f"{self.name}/ops"))
        self.targets = rng.integers(0, self.chunks,
                                    size=self.rounds).tolist()

    def setup(self):
        geometry = FlashGeometry(blocks=32, fpages_per_block=8)
        policy = TirednessPolicy(geometry=geometry)
        model = calibrate_power_law(policy, pec_limit_l0=12)
        ftl = FTLConfig(overprovision=0.25, buffer_opages=8)
        cluster = difs_cluster.Cluster(
            difs_cluster.ClusterConfig(replication=2, chunk_lbas=4),
            seed=self.cluster_seed)
        devices = []
        for n, chip_seed in enumerate(self.chip_seeds):
            cluster.add_node(f"n{n}")
            chip = FlashChip(geometry, rber_model=model, policy=policy,
                             seed=chip_seed, variation_sigma=0.3)
            device = SalamanderSSD(chip, SalamanderConfig(
                msize_lbas=32, mode="regen", headroom_fraction=0.25,
                ftl=ftl))
            cluster.add_device(f"n{n}", device)
            devices.append(device)
        for i in range(self.chunks):
            cluster.create_chunk(f"c{i}", f"gen0-{i}".encode())
        return cluster, devices

    def run(self, fixture, clock, mark_op=None) -> UnitResult:
        cluster, devices = fixture
        generation = [0] * self.chunks
        rejected = 0
        samples = []
        for round_index, i in enumerate(self.targets):
            if mark_op is not None:
                mark_op()
            start = clock()
            cluster.time = float(round_index)
            try:
                cluster.delete_chunk(f"c{i}")
                cluster.create_chunk(
                    f"c{i}", f"gen{round_index + 1}-{i}".encode())
                generation[i] = round_index + 1
            except repro_errors.ReproError:
                rejected += 1
            cluster.poll_failures()
            cluster.run_recovery()
            samples.append((start, clock() - start, 1))
        return UnitResult(
            ops=len(self.targets), failed=rejected, samples=samples,
            outputs={"cluster": cluster, "devices": devices,
                     "generation": generation, "rejected": rejected})

    def _read_back(self, outputs) -> list[str]:
        """Chunks that do not read back their last acknowledged write."""
        cluster = outputs["cluster"]
        wrong = []
        for i, gen in enumerate(outputs["generation"]):
            try:
                data = cluster.read_chunk(f"c{i}").rstrip(b"\0")
            except repro_errors.ChunkLostError:
                wrong.append(f"c{i} lost")
                continue
            if data != f"gen{gen}-{i}".encode():
                wrong.append(f"c{i} reads {data[:16]!r}, want gen{gen}")
        return wrong

    def check(self, outputs) -> list[str]:
        problems = self._read_back(outputs)
        lost = outputs["cluster"].recovery.stats.chunks_lost
        if lost:
            problems.append(f"{lost} chunks lost")
        if outputs["rejected"]:
            problems.append(f"{outputs['rejected']} chunk writes rejected")
        return problems

    def digest(self, outputs) -> str:
        cluster = outputs["cluster"]
        stats = cluster.recovery.stats
        return sha256_json({
            "namespace": cluster.namespace_snapshot(),
            "generation": outputs["generation"],
            "recovery": [stats.volume_failures, stats.chunks_recovered,
                         stats.chunks_lost, stats.bytes_read,
                         stats.bytes_written],
            "devices": [[d.stats.decommissioned_minidisks,
                         d.stats.regenerated_minidisks,
                         d.stats.host_writes, d.stats.flash_writes]
                        for d in outputs["devices"]],
        })

    def outcome_metrics(self, outputs) -> dict:
        cluster = outputs["cluster"]
        stats = cluster.recovery.stats
        attempted = len(self.targets)
        return {
            "sim_recovery_mib": (stats.bytes_moved / MIB, "MiB"),
            "difs.volume_failures": (stats.volume_failures, "count"),
            "difs.chunks_recovered": (stats.chunks_recovered, "count"),
            "difs.write_accept_ratio": (
                (attempted - outputs["rejected"]) / attempted, "ratio"),
        }


class FleetLifecycle:
    """Fleet survival and capacity under all four device disciplines."""

    name = "fleet_lifecycle"
    unit_consumes_fixture = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.fleet_seed = derive_seed(seed, self.name)
        self.config = fleet.FleetConfig(devices=512, horizon_days=3650,
                                        step_days=10)

    def setup(self):
        # simulate_fleet draws every device's hardware before its first
        # step; a one-step horizon runs that construction per mode.
        probe = replace(self.config, horizon_days=self.config.step_days)
        for mode in fleet.MODES:
            fleet.simulate_fleet(probe, mode, self.fleet_seed)
        return None

    def run(self, fixture, clock, mark_op=None) -> UnitResult:
        results = {}
        samples = []
        for mode in fleet.MODES:
            start = clock()
            result = fleet.simulate_fleet(self.config, mode, self.fleet_seed)
            steps = self.config.devices * len(result.days)
            results[mode] = result
            samples.append((start, clock() - start, steps))
        return UnitResult(ops=sum(ops for _s, _t, ops in samples),
                          failed=0, samples=samples,
                          outputs={"results": results})

    def check(self, outputs) -> list[str]:
        results = outputs["results"]
        problems = []
        lifetimes = [results[m].mean_lifetime_days() for m in fleet.MODES]
        if any(a > b for a, b in zip(lifetimes, lifetimes[1:])):
            problems.append(
                "mean lifetime not ordered baseline <= cvss <= shrink <= "
                f"regen: {dict(zip(fleet.MODES, lifetimes))}")
        for mode, result in results.items():
            if np.any(np.diff(result.functioning) > 0):
                problems.append(f"{mode}: functioning devices increase")
        return problems

    def digest(self, outputs) -> str:
        h = hashlib.sha256()
        for mode, result in outputs["results"].items():
            h.update(mode.encode())
            for array in (result.days, result.functioning,
                          result.capacity_bytes, result.capacity_lost_bytes,
                          result.death_day):
                h.update(np.ascontiguousarray(array).tobytes())
        return h.hexdigest()

    def outcome_metrics(self, outputs) -> dict:
        results = outputs["results"]
        gain = (results["regen"].mean_lifetime_days()
                / results["baseline"].mean_lifetime_days())
        return {"sim_lifetime_gain": (gain, "ratio")}


WORKLOADS = {w.name: w for w in (TrafficRead, DifsWearout, FleetLifecycle)}
