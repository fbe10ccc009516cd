"""Outside-in span recorder for the traced benchmark run.

The recorder wraps public functions and methods of each ``repro`` layer
from the outside: no program file changes. Every wrapped call records
one span (name, start, end, parent span, op id) into flat arrays kept in
memory and written out once at the end. A layer's self time is the time
its spans cover minus the time their child spans cover.

Only the traced run imports this module; untraced runs execute the
library's own code objects with no wrapper in the call path.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

#: (module, class or None for a module-level function, attributes, span
#: name prefix). Span names are ``<prefix>.<attribute>`` for methods and
#: the prefix itself for functions. ``place_replicas`` is wrapped where
#: the cluster looks it up, not where it is defined.
SPAN_TARGETS = (
    ("repro.workloads.engine", None, ("run_cell",), "workloads.run_cell"),
    ("repro.io.queue", "DeviceQueue",
     ("execute", "execute_vector", "submit", "poll"), "io"),
    ("repro.ssd.ftl", "PageMappedFTL",
     ("read", "write", "trim", "flush", "read_range", "read_batch",
      "write_range", "write_batch", "trim_range"), "ssd"),
    ("repro.salamander.device", "SalamanderSSD",
     ("read", "write", "trim", "read_range"), "salamander"),
    ("repro.flash.chip", "FlashChip",
     ("program", "read", "read_batch", "read_opages", "read_fpage",
      "erase"), "flash"),
    ("repro.difs.cluster", "Cluster",
     ("create_chunk", "read_chunk", "update_chunk", "delete_chunk",
      "poll_failures", "run_recovery", "flush_io"), "difs"),
    ("repro.difs.cluster", None, ("place_replicas",), "difs.placement"),
    ("repro.difs.recovery", "RecoveryManager", ("run",), "difs.recovery"),
    ("repro.sim.fleet", None, ("simulate_fleet",), "sim.fleet"),
    ("repro.sim.fleet", "FleetRules",
     ("advertised_bytes", "build_devices"), "sim.fleet"),
)

#: Classes whose instances the recorder collects at construction, so the
#: layer counters can be read from objects the library builds itself.
INSTANCE_TARGETS = (
    ("repro.io.queue", "DeviceQueue", "io"),
    ("repro.ssd.ftl", "PageMappedFTL", "ssd"),
    ("repro.flash.chip", "FlashChip", "flash"),
)

#: Spans directly under these start one op each (the traffic engine's
#: requests); elsewhere a root span starts an op unless the workload
#: marks its ops itself.
OP_PARENTS = ("workloads.run_cell",)


class SpanRecorder:
    """Spans in flat arrays plus the instances seen at construction."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.instances: dict[str, list] = {}
        self.skipped: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._explicit_ops = False
        self._op_parents: set[int] = set()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_op(self) -> None:
        """Start the next op; from now on root spans do not start ops."""
        self._explicit_ops = True
        self._op += 1

    def _wrap(self, fn, span_name: str):
        nid = self.name_id(span_name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends = self.start, self.end
        stack = self._stack
        op_parents = self._op_parents
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                parent = stack[-1]
                if names[parent] in op_parents:
                    self._op += 1
            else:
                parent = -1
                if not self._explicit_ops:
                    self._op += 1
            idx = len(names)
            names.append(nid)
            parents.append(parent)
            ops.append(self._op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _collect(self, init, label: str):
        seen = self.instances.setdefault(label, [])

        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            seen.append(obj)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block.

        A target the library no longer has is listed in ``skipped``
        rather than failing the run.
        """
        self._op_parents = {self.name_id(n) for n in OP_PARENTS}
        saved = []
        try:
            for module_name, class_name, attrs, prefix in SPAN_TARGETS:
                module = importlib.import_module(module_name)
                owner = (module if class_name is None
                         else getattr(module, class_name, None))
                for attr in attrs:
                    where = vars(owner) if owner is not None else {}
                    if attr not in where:
                        self.skipped.append(
                            f"{module_name}.{class_name or ''}.{attr}")
                        continue
                    name = (prefix if class_name is None
                            else f"{prefix}.{attr}")
                    saved.append((owner, attr, where[attr]))
                    setattr(owner, attr, self._wrap(where[attr], name))
            for module_name, class_name, label in INSTANCE_TARGETS:
                owner = getattr(importlib.import_module(module_name),
                                class_name)
                init = vars(owner)["__init__"]
                saved.append((owner, "__init__", init))
                owner.__init__ = self._collect(init, label)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(name ids, parent indices, self seconds) per span."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        parent = a["parent"]
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested],
                               minlength=duration.size)
        return a["name"], parent, duration - children

    def layer(self, prefix: str, name_ids, parent, self_s):
        """(self seconds, calls into) for spans named ``prefix[.*]``.

        A call into the layer is a span of the layer whose parent is
        outside it, so a layer method calling another counts once.
        """
        member = np.array([n == prefix or n.startswith(prefix + ".")
                           for n in self.names], dtype=bool)
        inside = member[name_ids]
        parent_inside = np.zeros_like(inside)
        nested = parent >= 0
        parent_inside[nested] = inside[parent[nested]]
        return (float(self_s[inside].sum()),
                int(np.count_nonzero(inside & ~parent_inside)))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, **self.arrays())


def _sum(objects, attr_path: str) -> float:
    total = 0.0
    for obj in objects:
        value = obj
        for part in attr_path.split("."):
            value = getattr(value, part)
        total += value
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder: SpanRecorder, outcome: dict,
                  overhead_ratio: float) -> dict:
    """Every per-layer metric; 0 where the workload does not run it."""
    from repro.salamander.device import SalamanderSSD

    name_ids, parent, self_s = recorder.self_times()
    metrics: dict[str, tuple[float, str]] = {}

    def layer(prefix: str):
        return recorder.layer(prefix, name_ids, parent, self_s)

    workloads_self, _ = layer("workloads")
    metrics["workloads.self_s"] = (workloads_self, "s")
    metrics["workloads.offered"] = outcome.get("workloads.offered",
                                               (0, "count"))
    metrics["workloads.admitted_ratio"] = outcome.get(
        "workloads.admitted_ratio", (0.0, "ratio"))

    queues = recorder.instances.get("io", [])
    io_self, io_calls = layer("io")
    metrics["io.calls"] = (io_calls, "count")
    metrics["io.self_s"] = (io_self, "s")
    metrics["io.self_us_per_call"] = (_ratio(io_self * 1e6, io_calls), "us")
    metrics["io.sim_wait_us_mean"] = (
        _ratio(_sum(queues, "stats.total_wait_us"),
               _sum(queues, "stats.dispatched")), "us")

    ftls = recorder.instances.get("ssd", [])
    ssd_self, ssd_calls = layer("ssd")
    metrics["ssd.calls"] = (ssd_calls, "count")
    metrics["ssd.self_s"] = (ssd_self, "s")
    metrics["ssd.gc_relocations"] = (
        int(_sum(ftls, "stats.gc_relocations")), "count")
    metrics["ssd.write_efficiency"] = (
        _ratio(_sum(ftls, "stats.host_writes"),
               _sum(ftls, "stats.flash_writes")), "ratio")

    salamanders = [d for d in ftls if isinstance(d, SalamanderSSD)]
    metrics["salamander.self_s"] = (layer("salamander")[0], "s")
    metrics["salamander.decommissioned"] = (
        int(_sum(salamanders, "stats.decommissioned_minidisks")), "count")
    metrics["salamander.regenerated"] = (
        int(_sum(salamanders, "stats.regenerated_minidisks")), "count")

    chips = recorder.instances.get("flash", [])
    metrics["flash.self_s"] = (layer("flash")[0], "s")
    metrics["flash.reads"] = (int(_sum(chips, "stats.reads")), "count")
    metrics["flash.programs"] = (int(_sum(chips, "stats.programs")), "count")
    metrics["flash.erases"] = (int(_sum(chips, "stats.erases")), "count")
    metrics["flash.retry_ratio"] = (
        _ratio(_sum(chips, "stats.read_retries"),
               _sum(chips, "stats.reads")), "ratio")

    metrics["difs.self_s"] = (layer("difs")[0], "s")
    metrics["difs.placement.self_s"] = (layer("difs.placement")[0], "s")
    metrics["difs.recovery.self_s"] = (layer("difs.recovery")[0], "s")
    for key, unit in (("difs.volume_failures", "count"),
                      ("difs.chunks_recovered", "count"),
                      ("difs.write_accept_ratio", "ratio")):
        metrics[key] = outcome.get(key, (0, unit))

    metrics["sim.fleet.self_s"] = (layer("sim.fleet")[0], "s")
    adv_self, adv_calls = layer("sim.fleet.advertised_bytes")
    metrics["sim.fleet.advertised_bytes.calls"] = (adv_calls, "count")
    metrics["sim.fleet.advertised_bytes.self_s"] = (adv_self, "s")
    metrics["sim.fleet.build_devices.self_s"] = (
        layer("sim.fleet.build_devices")[0], "s")

    for key, unit in (("sim_p99_latency_us", "us"),
                      ("sim_recovery_mib", "MiB"),
                      ("sim_lifetime_gain", "ratio")):
        metrics[key] = outcome.get(key, (0.0, unit))
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return metrics
