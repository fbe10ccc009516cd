"""The artifact codec (:mod:`repro.artifacts`) and every loader built on it.

* **Codec spec** — canonical JSON/JSONL bytes, the strict non-finite
  encoding, and the one read-error mapping.
* **Loader fuzz** — every artifact loader, fed arbitrary bytes,
  arbitrary JSON values, or a valid document with one key changed or
  deleted, either loads or raises :class:`~repro.errors.ConfigError`;
  no other exception may escape (the CLI maps ConfigError to exit 2 and
  anything else to a traceback-free exit 3, which would be a bug).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import artifacts
from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.obs.analyze import load_trace_jsonl
from repro.obs.endurance import (
    CAUSES,
    load_endurance,
    validate_endurance_records,
    write_endurance,
)
from repro.obs.metrics import MetricsRegistry, load_metrics
from repro.obs.reqtrace import (
    load_reqtrace,
    validate_reqtrace_records,
    write_reqtrace,
)
from repro.obs.slo import load_slo_config
from repro.obs.timeseries import TimeseriesSampler, load_timeseries
from repro.obs.trace import SimTimeTracer
from repro.reporting.claims import build_report
from repro.reporting.export import ExperimentWriter, load_experiment
from repro.reporting.series import Series
from repro.scenarios import load_scenario
from repro.sim.parallel import load_sweep_artifact, write_sweep_artifact
from repro.workloads.engine import (
    EngineConfig,
    load_engine_artifact,
    run_traffic,
    write_engine_artifact,
)
from repro.workloads.generators import Operation, OpType
from repro.workloads.traces import Trace

REPO = Path(__file__).resolve().parents[1]


class TestCanonicalBytes:
    def test_json_document_form(self, tmp_path):
        path = artifacts.write_json(tmp_path / "a" / "doc.json",
                                    {"b": [1, 2.5], "a": None})
        assert path.read_text() == (
            '{\n  "a": null,\n  "b": [\n    1,\n    2.5\n  ]\n}\n')

    def test_jsonl_form(self, tmp_path):
        path = artifacts.write_jsonl(tmp_path / "x.jsonl",
                                     [{"b": 1, "a": 2}, {"c": "d"}])
        assert path.read_text() == '{"a": 2, "b": 1}\n{"c": "d"}\n'
        assert artifacts.write_jsonl(tmp_path / "e.jsonl",
                                     []).read_text() == ""

    def test_bytes_are_a_function_of_content(self, tmp_path):
        a = artifacts.dumps({"x": 1, "y": {"q": 2, "p": 3}})
        b = artifacts.dumps({"y": {"p": 3, "q": 2}, "x": 1})
        assert a == b

    def test_int_keys_keep_numeric_order(self, tmp_path):
        path = artifacts.write_jsonl(tmp_path / "k.jsonl", [{10: "a", 9: "b"}])
        assert path.read_text() == '{"9": "b", "10": "a"}\n'


class TestNonFinite:
    def test_encoded_as_strings_everywhere(self, tmp_path):
        document = {"v": [math.nan, math.inf, -math.inf, 1.5],
                    "np": np.float64("inf")}
        text = artifacts.dumps(document)
        assert json.loads(text) == {
            "v": ["NaN", "Infinity", "-Infinity", 1.5], "np": "Infinity"}
        path = artifacts.write_jsonl(tmp_path / "n.jsonl", [{"x": math.nan}])
        assert path.read_text() == '{"x": "NaN"}\n'

    @pytest.mark.parametrize("value", [0.0, -2.5, math.inf, -math.inf])
    def test_round_trip(self, value):
        assert artifacts.decode_float(artifacts.encode_float(value)) \
            == value
        assert math.isnan(artifacts.decode_float(
            artifacts.encode_float(math.nan)))

    def test_is_number(self):
        for good in (0, 1.5, "NaN", "Infinity", "-Infinity"):
            assert artifacts.is_number(good)
        for bad in (True, None, "nan", "1.0", [], {}):
            assert not artifacts.is_number(bad)

    def test_unknown_types_rejected(self):
        with pytest.raises(ConfigError, match="cannot serialise"):
            artifacts.dumps({"x": object()})


class TestReadErrors:
    def test_missing(self, tmp_path):
        with pytest.raises(ConfigError, match="widget not found"):
            artifacts.read_json(tmp_path / "nope.json", "widget")

    @pytest.mark.parametrize("text", ["", "{bad", "[1, 2"])
    def test_invalid_json(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match="not valid JSON"):
            artifacts.read_json(path, "widget")

    @pytest.mark.parametrize("text", ["5", "[]", '"s"', "null"])
    def test_not_an_object(self, tmp_path, text):
        path = tmp_path / "scalar.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match="not a JSON object"):
            artifacts.read_json(path, "widget")

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(ConfigError, match="unreadable"):
            artifacts.read_json(path, "widget")

    def test_jsonl_errors_name_the_line(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n\n[2]\n')
        with pytest.raises(ConfigError, match=r"x\.jsonl:3 is not a JSON"):
            artifacts.read_jsonl(path, "widget")
        path.write_text('{"a": 1}\n{oops\n')
        with pytest.raises(ConfigError, match=r":2 is not valid JSONL"):
            artifacts.read_jsonl(path, "widget")


class TestHeadedJsonl:
    FORM = artifacts.HeadedJsonl("widget", "repro.widget/v1", "item")

    def test_round_trip_skips_other_kinds(self, tmp_path):
        path = self.FORM.write(tmp_path / "w.jsonl",
                               [{"kind": "item", "n": 1},
                                {"kind": "other", "n": 2}],
                               meta={"seed": 3})
        header, records = self.FORM.load(path)
        assert header == self.FORM.header({"seed": 3})
        assert records == [{"kind": "item", "n": 1}]

    def test_header_required_and_checked(self, tmp_path):
        path = artifacts.write_jsonl(tmp_path / "w.jsonl",
                                     [{"kind": "item"}])
        with pytest.raises(ConfigError, match="no repro.widget/v1 header"):
            self.FORM.load(path)
        artifacts.write_jsonl(path, [{"kind": "header", "schema": "v0"}])
        with pytest.raises(ConfigError, match="unsupported widget schema"):
            self.FORM.load(path)


# -- loader fuzz --------------------------------------------------------------


def _reqtrace_record() -> dict:
    return {"kind": "request", "op": "read", "device_kind": "ftl",
            "total_us": 3.0, "wait_us": 1.0, "service_us": 2.0,
            "segments": {"queue_wait": 1.0, "chip_read": 2.0},
            "attrs": {}, "submit_us": 0.0, "end_us": 3.0}


def _endurance_record() -> dict:
    programs = dict.fromkeys(CAUSES, 0) | {"host": 8, "gc": 2}
    opages = dict.fromkeys(CAUSES, 0) | {"host": 32, "gc": 8}
    erases = dict.fromkeys(CAUSES, 0) | {"gc": 3}
    return {"kind": "device", "name": "regen/d0", "blocks": 4,
            "programs": programs, "program_opages": opages,
            "erases": erases, "total_programs": 10,
            "total_program_opages": 40, "total_erases": 3,
            "mean_pec": 0.75, "max_pec": 1,
            "pec_histogram": {"0": 1, "1": 3}, "waf": 1.25}


def _write_valid(name: str, path: Path) -> None:
    """Write one valid artifact of loader ``name`` to ``path``."""
    if name == "metrics":
        registry = MetricsRegistry()
        registry.counter("repro_x_total", help="x").inc(2)
        registry.gauge("repro_g", help="g", labelnames=("mode",)).labels(
            mode="a").set(1.5)
        registry.histogram("repro_h", help="h").observe(0.2)
        registry.write_json(path)
    elif name in ("timeseries_jsonl", "timeseries_csv"):
        sampler = TimeseriesSampler()
        for t, v in ((0.0, 1.0), (1.0, math.inf), (2.0, 3.0)):
            sampler.record("repro_cap", t, v, labels={"mode": "a"})
        sampler.export(path)
    elif name == "trace":
        tracer = SimTimeTracer()
        with tracer.span("outer", n=1):
            tracer.event("tick")
        tracer.export_jsonl(path)
    elif name == "reqtrace":
        write_reqtrace(path, [_reqtrace_record()], meta={"seed": 1})
    elif name == "endurance":
        write_endurance(path, [_endurance_record()], meta={"seed": 1})
    elif name == "slo":
        path.write_bytes((REPO / "scenarios/slo_default.json").read_bytes())
    elif name == "engine":
        write_engine_artifact(run_traffic(
            EngineConfig(tenants=2, duration_us=500.0, cells=1), seed=1),
            path)
    elif name == "sweep":
        write_sweep_artifact({
            "schema": "repro.sweep/v1", "kind": "fleet_sweep",
            "config": {"devices": 2}, "modes": ["baseline"], "seeds": [1],
            "results": [{"mode": "baseline", "seed": 1, "days": [0, 10],
                         "functioning": [2, 1],
                         "capacity_bytes": [4.0, 2.0],
                         "mean_lifetime_days": 10.0}]}, path)
    elif name == "experiment":
        # Every part `repro report` reads: the summary table, capacity
        # series and an embedded timeseries document.
        writer = ExperimentWriter("exp", meta={"seed": 1})
        writer.add_table("summary", ["mode", "mean_lifetime_days"],
                         [["baseline", 100.0], ["shrink", 120.0]])
        for mode in ("baseline", "shrink"):
            writer.add_series(Series(f"{mode}/capacity", [0.0, 1.0],
                                     [4.0, 2.0]))
        sampler = TimeseriesSampler()
        sampler.record("repro_fleet_mean_lifetime_days", 1.0, 100.0,
                       labels={"mode": "baseline"})
        writer.attach_timeseries(sampler)
        path.write_bytes(writer.write(path.parent / "exp").read_bytes())
    elif name == "scenario":
        path.write_bytes((REPO / "scenarios/faulty_fleet.json").read_bytes())
    elif name == "fault_plan":
        FaultPlan.random(3, n_events=3).save(path)
    elif name == "trace_text":
        trace = Trace(n_lbas=8)
        trace.append(Operation(OpType.WRITE, 1, b"\x01\x02"))
        trace.append(Operation(OpType.READ, 1))
        trace.append(Operation(OpType.TRIM, 2))
        trace.save(path)
    else:  # pragma: no cover - table and writer out of step
        raise AssertionError(name)


#: loader name -> (file suffix, file form, load function). JSONL loaders
#: run their record validator too, as every CLI consumer does.
LOADERS = {
    "metrics": (".json", "json", load_metrics),
    "timeseries_jsonl": (".jsonl", "jsonl", load_timeseries),
    "timeseries_csv": (".csv", "csv", load_timeseries),
    "trace": (".jsonl", "jsonl", load_trace_jsonl),
    "reqtrace": (".jsonl", "jsonl", lambda p: validate_reqtrace_records(
        load_reqtrace(p)[1])),
    "endurance": (".jsonl", "jsonl", lambda p: validate_endurance_records(
        load_endurance(p)[1])),
    "slo": (".json", "json", load_slo_config),
    "engine": (".json", "json", load_engine_artifact),
    "sweep": (".json", "json", load_sweep_artifact),
    "experiment": (".json", "json", lambda p: build_report(
        artifact_doc=load_experiment(p), throughput_levels=(),
        traffic_levels=())),
    "scenario": (".json", "json", load_scenario),
    "fault_plan": (".json", "json", FaultPlan.load),
    "trace_text": (".trace", "text", Trace.load),
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["NaN", "Infinity", "-Infinity"]) | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8)

_DELETE = object()


@functools.cache
def _valid_bytes(name: str) -> bytes:
    """One valid file's bytes for loader ``name`` (checked to load)."""
    suffix, _, load = LOADERS[name]
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / f"{name}{suffix}"
        _write_valid(name, path)
        load(path)
        return path.read_bytes()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz")


def _load_or_config_error(name: str, workdir: Path, data: bytes) -> None:
    suffix, _, load = LOADERS[name]
    path = workdir / f"input{suffix}"
    path.write_bytes(data)
    try:
        load(path)
    except ConfigError:
        pass


def _key_paths(value, prefix=()):
    """Every path to a dict key in ``value`` (first 3 list items each)."""
    if isinstance(value, dict):
        for key, child in value.items():
            yield prefix + (key,)
            yield from _key_paths(child, prefix + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value[:3]):
            yield from _key_paths(child, prefix + (index,))


def _mutate(document, path, replacement):
    parent = document
    for step in path[:-1]:
        parent = parent[step]
    if replacement is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement


def _mutated(form: str, text: str, data) -> bytes:
    """``text`` with one key (JSON forms) or one field (text forms)
    replaced by an arbitrary value, or deleted."""
    if form in ("json", "jsonl"):
        document = (json.loads(text) if form == "json" else
                    [json.loads(line) for line in text.splitlines()])
        path = data.draw(st.sampled_from(sorted(
            _key_paths(document), key=repr)))
        _mutate(document, path, data.draw(
            st.just(_DELETE) | JSON_VALUES))
        if form == "json":
            return json.dumps(document).encode()
        return "".join(json.dumps(line) + "\n"
                       for line in document).encode()
    rows = (list(csv.reader(io.StringIO(text))) if form == "csv"
            else [line.split(" ") for line in text.splitlines()])
    row = data.draw(st.integers(0, len(rows) - 1))
    column = data.draw(st.integers(0, len(rows[row]) - 1))
    rows[row][column] = data.draw(st.text(max_size=8))
    if form == "csv":
        buffer = io.StringIO()
        csv.writer(buffer).writerows(rows)
        return buffer.getvalue().encode()
    return "".join(" ".join(r) + "\n" for r in rows).encode()


LOADER_NAMES = sorted(LOADERS)


class TestLoaderFuzz:
    @pytest.mark.parametrize("name", LOADER_NAMES)
    @settings(max_examples=15, deadline=None)
    @given(data=st.binary(max_size=120))
    def test_arbitrary_bytes(self, name, data, workdir):
        _load_or_config_error(name, workdir, data)

    @pytest.mark.parametrize("name", LOADER_NAMES)
    @settings(max_examples=15, deadline=None)
    @given(value=JSON_VALUES)
    def test_arbitrary_json_values(self, name, value, workdir):
        _load_or_config_error(name, workdir, json.dumps(value).encode())

    @pytest.mark.parametrize("name", LOADER_NAMES)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_one_key_mutations(self, name, data, workdir):
        form = LOADERS[name][1]
        mutated = _mutated(form, _valid_bytes(name).decode(), data)
        _load_or_config_error(name, workdir, mutated)

    @pytest.mark.parametrize("name", LOADER_NAMES)
    def test_fixed_bad_inputs(self, name, workdir):
        suffix, _, load = LOADERS[name]
        with pytest.raises(ConfigError):
            load(workdir / f"missing{suffix}")
        for text in ("", "{bad", "5"):
            path = workdir / f"bad{suffix}"
            path.write_text(text)
            with pytest.raises(ConfigError):
                load(path)
