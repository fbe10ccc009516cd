"""Determinism contract of the process-parallel sweep runner.

The headline property: a sweep artifact produced with ``--jobs N`` must
be **byte-identical** to one produced with ``--jobs 1``. Everything else
here (seed derivation invariance, order preservation, schema
validation) is a supporting lemma of that contract.
"""

from __future__ import annotations

import json
import os
import warnings

import pytest

from repro import context
from repro.errors import ConfigError
from repro.faults import FaultInjector, FaultPlan
from repro.flash.geometry import FlashGeometry
from repro.obs.endurance import EnduranceLedger
from repro.obs.reqtrace import ReqTracer
from repro.obs.slo import SLOEngine, SLOObjective
from repro.sim import parallel
from repro.sim.fleet import MODES, FleetConfig
from repro.sim.parallel import (
    derive_seeds,
    fleet_tasks,
    load_sweep_artifact,
    parallel_map,
    resolve_jobs,
    run_fleet_grid,
    summarize_sweep,
    sweep_document,
    validate_sweep_document,
    write_sweep_artifact,
)

#: Small enough for CI, big enough for GC + wear + deaths to occur.
TINY_CONFIG = FleetConfig(
    devices=6,
    geometry=FlashGeometry(blocks=16, fpages_per_block=16),
    pec_limit_l0=300.0,
    variation_sigma=0.35,
    dwpd=2.0,
    write_amplification=2.0,
    afr=0.02,
    horizon_days=730,
    step_days=10,
)


def _square(x: int) -> int:
    return x * x


def _worker_sidecars(_task: int) -> tuple[int, dict]:
    """The worker's pid and every run-context field it sees."""
    return os.getpid(), dict(vars(context.current()))


class TestSeedDerivation:
    def test_deterministic_and_jobs_invariant(self):
        # Seeds derive in the parent before dispatch: the schedule is a
        # pure function of (root_seed, count), never of worker count.
        assert derive_seeds(2025, 6) == derive_seeds(2025, 6)

    def test_prefix_stable(self):
        # Growing a sweep keeps the existing runs' seeds.
        assert derive_seeds(7, 3) == derive_seeds(7, 8)[:3]

    def test_distinct_roots_diverge(self):
        assert derive_seeds(1, 4) != derive_seeds(2, 4)

    def test_count_must_be_positive(self):
        with pytest.raises(ConfigError):
            derive_seeds(1, 0)


class TestParallelMap:
    def test_preserves_order(self):
        tasks = list(range(37))
        assert parallel_map(_square, tasks, jobs=4) == \
            [x * x for x in tasks]

    def test_sequential_fallback(self):
        assert parallel_map(_square, [3], jobs=8) == [9]

    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(0) >= 1
        with pytest.raises(ConfigError):
            resolve_jobs(-1)

    def test_resolve_jobs_auto(self, monkeypatch):
        # 'auto' = all cores but one, floor 1; always a resolved int.
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 8)
        assert resolve_jobs("auto") == 7
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 1)
        assert resolve_jobs("auto") == 1
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: None)
        assert resolve_jobs("auto") == 1

    def test_resolve_jobs_rejects_other_strings_and_bools(self):
        with pytest.raises(ConfigError):
            resolve_jobs("fast")
        with pytest.raises(ConfigError):
            resolve_jobs(True)

    def test_workers_start_from_the_empty_context(self):
        # A forked worker must not inherit the parent's sidecars: a
        # fleet task with faults=None would otherwise fall back to a
        # copy of the parent's injector, and jobs=1 vs jobs=2 diverge.
        sidecars = {
            "faults": FaultInjector(FaultPlan.random(1)),
            "reqtrace": ReqTracer(seed=1),
            "endurance": EnduranceLedger(),
            "slo": SLOEngine([SLOObjective(name="p99", kind="latency",
                                           threshold_us=1000.0)]),
        }
        with context.bound(**sidecars):
            results = parallel_map(_worker_sidecars, [0, 1, 2, 3], jobs=2)
            # The parent's own context is untouched.
            assert context.current().faults is sidecars["faults"]
        assert all(pid != os.getpid() for pid, _ in results)
        for _, fields in results:
            assert fields == dict.fromkeys(fields), fields

    def test_fork_unavailable_falls_back_serially(self, monkeypatch):
        # Platforms without the fork start method degrade to the serial
        # path with a warning — results identical, never a spawn pool.
        monkeypatch.setattr(parallel, "_fork_context", lambda: None)
        with pytest.warns(RuntimeWarning, match="fork"):
            results = parallel_map(_square, list(range(7)), jobs=4)
        assert results == [x * x for x in range(7)]

    def test_fork_unavailable_single_task_stays_quiet(self, monkeypatch):
        # One task never needs a pool, so no fallback warning either.
        monkeypatch.setattr(parallel, "_fork_context", lambda: None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parallel_map(_square, [5], jobs=2) == [25]


class TestTaskEnumeration:
    def test_seed_major_canonical_order(self):
        tasks = fleet_tasks(TINY_CONFIG, ("baseline", "regen"), (5, 9))
        assert [(t.mode, t.seed) for t in tasks] == [
            ("baseline", 5), ("regen", 5), ("baseline", 9), ("regen", 9)]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            fleet_tasks(TINY_CONFIG, ("warp",), (1,))


class TestSweepByteIdentity:
    """The satellite's acceptance check, as a test."""

    @pytest.fixture(scope="class")
    def seeds(self):
        return derive_seeds(2025, 2)

    def test_jobs2_artifact_matches_jobs1_bytes(self, seeds, tmp_path):
        documents = {}
        for jobs in (1, 2):
            grid = run_fleet_grid(TINY_CONFIG, modes=MODES, seeds=seeds,
                                  jobs=jobs)
            documents[jobs] = sweep_document(TINY_CONFIG, MODES, seeds,
                                             grid)
        paths = {jobs: write_sweep_artifact(doc,
                                            tmp_path / f"j{jobs}.json")
                 for jobs, doc in documents.items()}
        assert paths[1].read_bytes() == paths[2].read_bytes()

    def test_artifact_round_trips_and_summarizes(self, seeds, tmp_path):
        grid = run_fleet_grid(TINY_CONFIG, modes=MODES, seeds=seeds,
                              jobs=1)
        document = sweep_document(TINY_CONFIG, MODES, seeds, grid)
        path = write_sweep_artifact(document, tmp_path / "sweep.json")
        loaded = load_sweep_artifact(path)
        assert loaded == json.loads(json.dumps(document))
        rows = summarize_sweep(loaded)
        assert [row["mode"] for row in rows] == list(MODES)
        for row in rows:
            assert row["runs"] == len(seeds)
            assert row["mean_lifetime_days"] > 0


class TestSchemaValidation:
    def test_missing_keys_rejected(self):
        with pytest.raises(ConfigError):
            validate_sweep_document({"schema": "repro.sweep/v1"})

    def test_wrong_schema_rejected(self):
        with pytest.raises(ConfigError):
            validate_sweep_document({"schema": "repro.sweep/v0",
                                     "config": {}, "modes": [],
                                     "seeds": [], "results": []})

    @pytest.mark.parametrize("key, value", [
        ("results", 5), ("modes", 5), ("seeds", "ab"), ("config", []),
        ("results", [5]),
    ])
    def test_wrongly_typed_fields_rejected(self, key, value):
        document = {"schema": "repro.sweep/v1", "config": {},
                    "modes": ["baseline"], "seeds": [1], "results": [{}]}
        document[key] = value
        with pytest.raises(ConfigError):
            validate_sweep_document(document)

    def test_result_count_must_match_grid(self):
        with pytest.raises(ConfigError):
            validate_sweep_document({
                "schema": "repro.sweep/v1", "config": {},
                "modes": ["baseline"], "seeds": [1, 2], "results": []})

    def test_write_rejects_non_sweep_documents(self, tmp_path):
        with pytest.raises(ConfigError):
            write_sweep_artifact({"schema": "bogus"}, tmp_path / "x.json")
