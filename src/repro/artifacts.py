"""The artifact codec: every JSON/JSONL artifact is written and read here.

* **JSON documents** are canonical: ``indent=2``, ``sort_keys=True``,
  ``allow_nan=False``, ending in one ``"\\n"``, so the bytes are a pure
  function of the document (the ``cmp`` determinism gates rely on it).
* **JSONL** files hold one ``sort_keys`` object per line. A *headed* form
  (:class:`HeadedJsonl`: reqtrace, endurance) starts with a schema header.
* **Non-finite floats** become the strings ``"NaN"``, ``"Infinity"`` and
  ``"-Infinity"`` (:func:`encode_float`); writers run :func:`jsonable`
  over the whole document, so no bare literal reaches a file and values
  of unknown types raise :class:`~repro.errors.ConfigError`.
* **Reading** has one error mapping: a missing or undecodable file,
  invalid JSON, or a document or line that is not an object raises
  :class:`~repro.errors.ConfigError` naming the path (and line), which
  the CLI turns into exit code 2.

Schema checks stay next to each schema (the ``validate_*`` functions);
they share only :func:`require_fields`, the object-and-fields shape test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.errors import ConfigError

_NON_FINITE = {"NaN": math.nan, "Infinity": math.inf,
               "-Infinity": -math.inf}


def encode_float(value: float) -> float | str:
    """``value``, or its string encoding when it is not finite."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return value


def decode_float(value) -> float:
    """Inverse of :func:`encode_float` (plain numbers pass through)."""
    if isinstance(value, str) and value in _NON_FINITE:
        return _NON_FINITE[value]
    return float(value)


def is_number(value) -> bool:
    """A JSON number (not a bool) or an encoded non-finite float."""
    if isinstance(value, str):
        return value in _NON_FINITE
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def jsonable(value):
    """``value`` as strict-JSON-ready Python values (see module doc).

    numpy scalars/arrays become numbers/lists, tuples lists,
    ``Path``/``Enum`` strings. Dict keys JSON holds natively are kept, so
    ``sort_keys`` orders them as before; other keys become ``str(key)``.
    """
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return encode_float(float(value))
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {(k if isinstance(k, (str, int, float, bool)) or k is None
                 else str(k)): jsonable(v) for k, v in value.items()}
    if isinstance(value, Enum):
        return str(value.value)
    if isinstance(value, Path):
        return str(value)
    raise ConfigError(
        f"cannot serialise {type(value).__name__!r} value {value!r} "
        f"into an artifact")


# -- writing -----------------------------------------------------------------

def dumps(document) -> str:
    """The canonical JSON text of ``document``."""
    return json.dumps(jsonable(document), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` verbatim (UTF-8), creating parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    return path


def write_json(path: str | Path, document) -> Path:
    """Write ``document`` as canonical JSON; returns the path."""
    return write_text(path, dumps(document))


def write_jsonl(path: str | Path, records: Iterable) -> Path:
    """Write one ``sort_keys`` JSON object per line; returns the path."""
    return write_text(path, "".join(
        json.dumps(jsonable(record), sort_keys=True, allow_nan=False) + "\n"
        for record in records))


# -- reading -----------------------------------------------------------------

def read_text(path: str | Path, what: str) -> str:
    """The UTF-8 text of ``path``; ``what`` names the file in errors."""
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except (OSError, UnicodeDecodeError) as error:
        raise ConfigError(f"{what} {path} is unreadable: {error}") from error


def _object(text: str, where: str, form: str = "JSON") -> dict:
    try:
        value = json.loads(text)
    except (ValueError, RecursionError) as error:
        raise ConfigError(f"{where} is not valid {form}: {error}") from error
    if not isinstance(value, dict):
        raise ConfigError(f"{where} is not a JSON object")
    return value


def loads(text: str, what: str) -> dict:
    """Parse ``text`` as one JSON object document."""
    return _object(text, what)


def read_json(path: str | Path, what: str) -> dict:
    """Read a JSON document that must be an object."""
    return _object(read_text(path, what), f"{what} {path}")


def read_jsonl(path: str | Path, what: str) -> list[dict]:
    """Read a JSONL file; every non-blank line must be an object."""
    return [_object(line, f"{what} {path}:{number}", "JSONL")
            for number, line in enumerate(
                read_text(path, what).splitlines(), start=1)
            if line.strip()]


def require_fields(document, what: str, fields: dict) -> None:
    """Raise ConfigError unless ``document`` is an object holding every
    key of ``fields`` with a value of that key's type(s)."""
    if not isinstance(document, dict):
        raise ConfigError(f"{what} must be a JSON object")
    for key, kind in fields.items():
        if key not in document:
            raise ConfigError(f"{what} missing {key!r}")
        if not isinstance(document[key], kind):
            raise ConfigError(f"{what} {key!r} has the wrong type "
                              f"({type(document[key]).__name__})")


@dataclass(frozen=True)
class HeadedJsonl:
    """A JSONL form: one ``schema`` header line, then records.

    ``name`` labels the header and error messages; ``kind`` is the
    record kind :meth:`load` keeps (lines of other kinds are skipped).
    """

    name: str
    schema: str
    kind: str

    def header(self, meta: dict | None = None) -> dict:
        return {"kind": "header", "name": self.name, "time": 0.0,
                "schema": self.schema, "meta": meta or {}}

    def write(self, path: str | Path, records: Iterable[dict],
              header: dict | None = None,
              meta: dict | None = None) -> Path:
        """Write ``header`` (default: one built from ``meta``), then
        one line per record."""
        return write_jsonl(path, [header or self.header(meta), *records])

    def load(self, path: str | Path) -> tuple[dict, list[dict]]:
        """Read back ``(header, records of this kind)``."""
        header = None
        records = []
        for record in read_jsonl(path, f"{self.name} artifact"):
            if record.get("kind") == "header":
                if record.get("schema") != self.schema:
                    raise ConfigError(
                        f"unsupported {self.name} schema in {path}: "
                        f"{record.get('schema')!r}")
                header = record
            elif record.get("kind") == self.kind:
                records.append(record)
        if header is None:
            raise ConfigError(f"{self.name} artifact {path} has no "
                              f"{self.schema} header")
        return header, records
