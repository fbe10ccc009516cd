"""Machine-readable experiment artifacts.

Benches print human tables; downstream users (plotting scripts, regression
dashboards) want structure. :class:`ExperimentWriter` collects named tables
and series and writes one JSON document per experiment, with a stable
schema::

    {
      "experiment": "fig3a",
      "meta": {...},                      # free-form provenance
      "tables": {"name": {"headers": [...], "rows": [[...], ...]}},
      "series": {"name": {"x": [...], "y": [...],
                           "x_label": "...", "y_label": "..."}},
      "metrics": {...}                    # optional; attach_metrics()
    }

The encoding (canonical bytes, non-finite floats as ``"NaN"``/
``"Infinity"`` strings, unknown types rejected with
:class:`~repro.errors.ConfigError`) is :mod:`repro.artifacts`'s.
"""

from __future__ import annotations

from pathlib import Path

from repro.artifacts import jsonable, read_json, require_fields, write_json
from repro.errors import ConfigError
from repro.obs.timeseries import validate_timeseries_document
from repro.reporting.series import Series


class ExperimentWriter:
    """Collects one experiment's tables/series and writes them as JSON.

    Args:
        experiment: identifier (becomes the file stem).
        meta: free-form provenance (config values, seeds, versions).
    """

    def __init__(self, experiment: str, meta: dict | None = None) -> None:
        if not experiment or "/" in experiment:
            raise ConfigError(
                f"experiment must be a non-empty name without '/', "
                f"got {experiment!r}")
        self.experiment = experiment
        self.meta = dict(meta or {})
        self._tables: dict[str, dict] = {}
        self._series: dict[str, dict] = {}
        self._metrics = None
        self._timeseries = None

    def attach_metrics(self, registry) -> None:
        """Embed a metrics registry's document in the artifact.

        ``registry`` is anything with a ``to_dict()`` returning the
        ``repro.obs.metrics/v1`` document (collected lazily at
        :meth:`document` time, so late samples are included).
        """
        self._metrics = registry

    def attach_timeseries(self, sampler) -> None:
        """Embed a timeseries sampler's document in the artifact.

        ``sampler`` is anything with a ``to_dict()`` returning the
        ``repro.obs.timeseries/v1`` document (snapshotted lazily at
        :meth:`document` time). ``repro report`` reads the embedded
        document via ``--artifact`` exactly as it reads a standalone
        ``--timeseries`` file.
        """
        self._timeseries = sampler

    def add_table(self, name: str, headers: list[str],
                  rows: list[list]) -> None:
        if not headers:
            raise ConfigError("headers must be non-empty")
        for row in rows:
            if len(row) != len(headers):
                raise ConfigError(
                    f"table {name!r}: row width {len(row)} != "
                    f"{len(headers)} headers")
        self._tables[name] = {
            "headers": list(headers),
            "rows": [jsonable(list(row)) for row in rows],
        }

    def add_series(self, series: Series) -> None:
        self._series[series.name] = {
            "x": jsonable(series.x),
            "y": jsonable(series.y),
            "x_label": series.x_label,
            "y_label": series.y_label,
        }

    def document(self) -> dict:
        document = {
            "experiment": self.experiment,
            "meta": jsonable(self.meta),
            "tables": self._tables,
            "series": self._series,
        }
        if self._metrics is not None:
            document["metrics"] = jsonable(self._metrics.to_dict())
        if self._timeseries is not None:
            document["timeseries"] = jsonable(self._timeseries.to_dict())
        return document

    def write(self, directory: str | Path) -> Path:
        """Write ``<directory>/<experiment>.json``; returns the path."""
        return write_json(Path(directory) / f"{self.experiment}.json",
                          self.document())


def load_experiment(path: str | Path) -> dict:
    """Read back an artifact; validates the shape ``repro report`` reads.

    That is the top-level keys, every table's ``headers``/``rows``,
    every series' ``y`` and, when present, the embedded timeseries
    document.
    """
    document = read_json(path, "artifact")
    what = f"artifact {path}"
    require_fields(document, what, {"experiment": object, "meta": object,
                                    "tables": dict, "series": dict})
    for name, table in document["tables"].items():
        require_fields(table, f"{what} table {name!r}",
                       {"headers": list, "rows": list})
        if not all(isinstance(row, list) for row in table["rows"]):
            raise ConfigError(f"{what} table {name!r} rows must be lists")
    for name, series in document["series"].items():
        require_fields(series, f"{what} series {name!r}", {"y": list})
    if "timeseries" in document:
        validate_timeseries_document(document["timeseries"])
    return document
