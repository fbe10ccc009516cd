"""Disabled sidecars must cost nothing: one bound None, one `is` check.

Every layer reads the run context (:mod:`repro.context`) once at
construction and keeps the sidecars it uses; with nothing bound those
bindings are ``None`` and the hot paths reduce to a single identity
test. These tests pin the binding discipline so a future refactor
cannot quietly re-introduce per-op context lookups (the perf harness
guards the wall-clock side; see docs/PERFORMANCE.md).
"""

from __future__ import annotations

from repro import context
from repro.difs.cluster import Cluster, ClusterConfig
from repro.faults import FaultInjector, FaultPlan
from repro.io import DeviceQueue
from repro.obs import MetricsRegistry, SimTimeTracer, TimeseriesSampler
from repro.obs.endurance import EnduranceLedger
from repro.obs.reqtrace import ReqTracer
from repro.obs.slo import SLOEngine, SLOObjective
from repro.sim.engine import Engine
from repro.ssd.ftl import PageMappedFTL

#: Sidecar binding attributes each layer keeps (the spec: a layer that
#: grows a new binding must be listed here, and it must be None when
#: nothing is bound).
BINDINGS = {
    "FlashChip": ("_faults", "_reqtrace", "_endurance"),
    "PageMappedFTL": ("_faults", "_reqtrace", "_endurance"),
    "GCPolicy": ("_faults",),
    "BaselineSSD": ("_faults", "_reqtrace", "_endurance"),
    "SalamanderSSD": ("_faults", "_reqtrace", "_endurance", "_metrics",
                      "_tracer", "_ts"),
    "DeviceQueue": ("_reqtrace", "_rt_sampler", "_slo"),
    "Cluster": ("_faults",),
    "RecoveryManager": ("_faults", "_tracer"),
    "Engine": ("_faults", "_ts"),
}


def every_sidecar() -> dict:
    """One instance of each of the seven sidecars."""
    registry = MetricsRegistry()
    return {
        "metrics": registry,
        "tracer": SimTimeTracer(),
        "timeseries": TimeseriesSampler(registry=registry),
        "faults": FaultInjector(FaultPlan.random(1)),
        "reqtrace": ReqTracer(seed=1),
        "endurance": EnduranceLedger(),
        "slo": SLOEngine([SLOObjective(name="p99", kind="latency",
                                       threshold_us=1000.0)]),
    }


def build_layers(make_chip, ftl_config, make_baseline, make_salamander):
    ftl = PageMappedFTL.for_chip(make_chip(), ftl_config)
    salamander = make_salamander()
    cluster = Cluster(ClusterConfig(replication=2, chunk_lbas=4), seed=1)
    return {
        "FlashChip": make_chip(),
        "PageMappedFTL": ftl,
        "GCPolicy": ftl._gc,
        "BaselineSSD": make_baseline(),
        "SalamanderSSD": salamander,
        "DeviceQueue": DeviceQueue(salamander),
        "Cluster": cluster,
        "RecoveryManager": cluster.recovery,
        "Engine": Engine(),
    }


class TestDisabledBindings:
    def test_nothing_installed_by_default(self):
        assert context.current() is context.EMPTY
        assert all(value is None
                   for value in vars(context.current()).values())

    def test_every_layer_binds_none_when_disabled(self, make_chip,
                                                  ftl_config, make_baseline,
                                                  make_salamander):
        layers = build_layers(make_chip, ftl_config, make_baseline,
                              make_salamander)
        assert set(layers) == set(BINDINGS)
        for name, layer in layers.items():
            for attr in BINDINGS[name]:
                assert getattr(layer, attr) is None, f"{name}.{attr}"

    def test_binding_happens_at_construction_not_per_call(
            self, make_chip, ftl_config, make_baseline, make_salamander):
        # Layers built *before* bound() never see its sidecars
        # (documented contract: bind first, construct second)...
        before = build_layers(make_chip, ftl_config, make_baseline,
                              make_salamander)
        sidecars = every_sidecar()
        with context.bound(**sidecars):
            for name, layer in before.items():
                for attr in BINDINGS[name]:
                    assert getattr(layer, attr) is None, f"{name}.{attr}"
            # ...and ones built inside keep their sidecars after the
            # scope ends (they never re-read the context).
            during = build_layers(make_chip, ftl_config, make_baseline,
                                  make_salamander)
        assert context.current() is context.EMPTY
        expected = {"_faults": sidecars["faults"],
                    "_reqtrace": sidecars["reqtrace"],
                    "_slo": sidecars["slo"],
                    "_metrics": sidecars["metrics"],
                    "_tracer": sidecars["tracer"],
                    "_ts": sidecars["timeseries"]}
        for name, layer in during.items():
            for attr in BINDINGS[name]:
                value = getattr(layer, attr)
                assert value is not None, f"{name}.{attr}"
                if attr in expected:
                    assert value is expected[attr], f"{name}.{attr}"
        ledger = sidecars["endurance"]
        assert during["PageMappedFTL"]._endurance is ledger
        # A chip binds its own per-device handle on the bound ledger.
        assert during["FlashChip"]._endurance in ledger.devices.values()

    def test_disabled_device_behaves_identically(self, make_chip,
                                                 ftl_config):
        # Behavioural zero-cost: op-for-op identical results with the
        # subsystem absent vs merely disabled is what lets the perf
        # floors in benchmarks/ apply unchanged.
        outputs = []
        for _ in range(2):
            device = PageMappedFTL.for_chip(
                make_chip(seed=5, inject_errors=False), ftl_config)
            for lba in range(32):
                device.write(lba % 12, f"z{lba}".encode())
            device.flush()
            device.background_tick()
            outputs.append([device.read(lba) for lba in range(12)])
        assert outputs[0] == outputs[1]
        assert context.current().faults is None
