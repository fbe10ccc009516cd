"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 e2ebench/run.py --workload traffic_read --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` makes the
same untraced run, then one more unit under the span recorder, and
prints every per-layer metric.
Every time is taken on the clock of the host-speed probe in hostspeed.py
and scaled to a reference host speed, so the host's fast and slow
phases do not show in the metrics.
Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. See e2ebench/README.md for what each workload and metric
means.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"

#: Set-up runs before timing. One more runs before every further unit,
#: so the set-up samples spread over the whole run like the units do;
#: the reported set-up time is their median.
SETUP_REPEATS = 3
#: Units a run always measures, however short ``--seconds`` is.
MIN_UNITS = 2
#: Foreground host-speed probes on either side of the traced unit.
TRACED_PROBES = hostspeed.WINDOW


class Run:
    """Outcome of every unit a run measured, checked and digested.

    Every time is taken on the host-speed probe's clock and reported
    scaled to the reference host speed (see hostspeed.py).
    """

    def __init__(self, workload, speed: hostspeed.HostSpeed) -> None:
        self.workload = workload
        self.speed = speed
        self.units = []
        self.setups: list[tuple[float, float]] = []
        self.problems: list[str] = []
        self.digests: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.outcome: dict | None = None

    def setup(self):
        start = self.speed.clock()
        fixture = self.workload.setup()
        self.setups.append((start, self.speed.clock() - start))
        return fixture

    def record(self, unit) -> None:
        """Check and digest a unit, then drop its outputs.

        Only the first unit's outcome metrics are kept (every unit of a
        run has the same inputs), so memory does not grow with the
        number of units a run fits into its time.
        """
        problems = self.workload.check(unit.outputs)
        self.digests.add(self.workload.digest(unit.outputs))
        if self.outcome is None:
            self.outcome = self.workload.outcome_metrics(unit.outputs)
        unit.outputs = None
        self.units.append(unit)
        self.problems.extend(problems)
        self.attempted += unit.ops
        self.failed += unit.ops if problems else unit.failed

    @property
    def correct(self) -> bool:
        return not self.problems and len(self.digests) == 1 \
            and self.failed == 0

    def scaled(self, unit) -> tuple[np.ndarray, np.ndarray]:
        """A unit's scaled piece durations (s) and the ops in each."""
        start, seconds, ops = (np.array(column, dtype=float)
                               for column in zip(*unit.samples))
        return self.speed.scale(start, seconds), ops


def run_untraced(workload, seconds: float) -> tuple[Run, dict]:
    speed = hostspeed.HostSpeed()
    run = Run(workload, speed)
    began = time.perf_counter()
    with speed:
        fixture = None
        for _ in range(SETUP_REPEATS):
            fixture = run.setup()
        deadline = time.perf_counter() + seconds
        while True:
            if run.units:
                fixture = run.setup()
            # The previous unit's garbage is collected here, not inside
            # the next unit's timed region.
            gc.collect()
            run.record(workload.run(fixture, speed.clock))
            if (len(run.units) >= MIN_UNITS
                    and time.perf_counter() >= deadline):
                break
    setup_s = speed.scale(*zip(*run.setups))
    throughput = []
    raw_throughput = []
    op_us = []
    for unit in run.units:
        scaled, ops = run.scaled(unit)
        throughput.append(unit.ops / scaled.sum())
        raw_throughput.append(unit.ops / unit.seconds)
        op_us.append(scaled * 1e6 / ops)
    op_us = np.concatenate(op_us)
    op_p50, op_p99 = np.percentile(op_us, [50, 99])
    probe_us = np.percentile(speed.probe_s, [25, 50, 75]) * 1e6
    print(f"# host speed: {len(speed.probe_s)} probes, q1 {probe_us[0]:.4g} "
          f"median {probe_us[1]:.4g} q3 {probe_us[2]:.4g} us against "
          f"{hostspeed.REFERENCE_S * 1e6:.4g} us; probes took "
          f"{speed.stolen / (time.perf_counter() - began):.2%} of the run")
    print(f"# unscaled throughput_ops_s {statistics.median(raw_throughput):.6g}"
          f" 1/s, median of {len(raw_throughput)} units")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (float(np.median(setup_s)), "s",
                    f"median of {len(setup_s)} set-ups",
                    np.percentile(setup_s, [25, 50, 75])),
        "throughput_ops_s": (statistics.median(throughput), "1/s",
                             f"median of {len(throughput)} units",
                             np.percentile(throughput, [25, 50, 75])),
        "op_p50_us": (float(op_p50), "us", f"n={len(op_us)} samples", None),
        "op_p99_us": (float(op_p99), "us", f"n={len(op_us)} samples", None),
        "peak_rss_mib": (peak_kib / 1024.0, "MiB", "whole process", None),
        "ok_share": (1.0 - run.failed / run.attempted, "ratio",
                     f"{run.attempted - run.failed} of {run.attempted} ops",
                     None),
    }
    return run, metrics


def run_traced(workload, seconds: float) -> tuple[Run, dict]:
    """The untraced run as a reference, then one unit under the recorder.

    The per-layer numbers cover exactly one unit (and the fixture it
    consumes), so their counts repeat exactly for a seed. The probe
    timer is off while the recorder is installed, so no span holds probe
    time; foreground probes just before and after the traced unit scale
    its time for ``trace.overhead_ratio``.
    """
    import spans

    run, _ = run_untraced(workload, seconds)
    reference_s = statistics.median(run.scaled(u)[0].sum()
                                    for u in run.units)
    recorder = spans.SpanRecorder()
    gc.collect()
    run.speed.sample(TRACED_PROBES)
    with recorder.installed():
        fixture = (workload.setup() if workload.unit_consumes_fixture
                   else None)
        unit = workload.run(fixture, run.speed.clock,
                            mark_op=recorder.begin_op)
    run.speed.sample(TRACED_PROBES)
    traced_s = run.scaled(unit)[0].sum()
    layer = spans.layer_metrics(recorder,
                                workload.outcome_metrics(unit.outputs),
                                traced_s / reference_s)
    run.record(unit)
    for target in recorder.skipped:
        print(f"# not traced, gone from the library: {target}")
    trace_path = TRACE_DIR / f"{workload.name}-seed{workload.seed}.npz"
    recorder.write(trace_path)
    print(f"# {len(recorder.start)} spans written to "
          f"{trace_path.relative_to(ROOT)}")
    metrics = {name: (value, unit, "one traced unit", None)
               for name, (value, unit) in layer.items()}
    return run, metrics


def report(run: Run, metrics: dict, trace: bool) -> dict:
    workload = run.workload
    print(f"# workload {workload.name} seed {workload.seed} "
          f"trace {int(trace)}: {len(run.units)} units, "
          f"{run.attempted} ops, {run.failed} failed")
    for digest in sorted(run.digests):
        print(f"# simulation digest {digest}")
    if len(run.digests) > 1:
        print("# FAIL: units with identical inputs gave different digests")
    for problem in run.problems:
        print(f"# FAIL: {problem}")
    print(f"# error_share {run.failed / run.attempted:.6g} ratio")
    if not trace:
        for name, (value, unit) in run.outcome.items():
            print(f"# {name} {value:.10g} {unit} (deterministic)")
    for name, (value, unit, note, spread) in metrics.items():
        line = f"{name:<36} {value:>16.6f} {unit:<6} {note}"
        if spread is not None:
            line += (f"; q1 {spread[0]:.6g} median {spread[1]:.6g} "
                     f"q3 {spread[2]:.6g}")
        print(line)
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _note, _spread)
                    in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of "
                     f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        run, metrics = run_traced(workload, args.seconds)
    else:
        run, metrics = run_untraced(workload, args.seconds)
    print(json.dumps(report(run, metrics, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
