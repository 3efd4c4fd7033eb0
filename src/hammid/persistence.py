"""Dataset, model, and series file I/O.

All formats are plain text with full shortest-round-trip decimal numbers
(Python ``repr`` of a float), so load(save(x)) reproduces x bit for bit.

Dataset format (comma separated, LF newlines)::

    # hammid dataset v1
    # sample_period: 1.0
    # inputs: I_p,V_f
    # outputs: W_b,H_f
    # units: I_p=A,V_f=cm/s            (optional)
    # operating_point: I_p=150.0       (optional)
    index,I_p,V_f,W_b,H_f
    0,148.0,9.0,0.01,0.0
    ...

Series format (one signal, e.g. an excitation schedule)::

    # hammid series v1
    # signal: I_p
    index,value
    0,148.0
    ...

Model files are JSON with a ``schema_version`` field; unknown versions are
rejected.  Channels are stored per output row as {p, r, n, a, m, b, d}.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .model import (
    Dataset,
    HammersteinChannel,
    LinearDynamics,
    MimoHammersteinModel,
    StaticNonlinearity,
)

MODEL_SCHEMA_VERSION = 1
_DATASET_MAGIC = "# hammid dataset v1"
_SERIES_MAGIC = "# hammid series v1"


class FileFormatError(ValueError):
    """Malformed file; carries the path and 1-based line number."""

    def __init__(self, path, line: int | None, message: str):
        self.path = str(path)
        self.line = line
        where = f"{path}:{line}" if line is not None else str(path)
        super().__init__(f"{where}: {message}")


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_float(cell: str, path, line: int, what: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise FileFormatError(path, line, f"non-numeric {what}: {cell!r}") from None


def _parse_mapping(text: str, path, line: int) -> dict:
    out = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise FileFormatError(path, line, f"expected name=value, got {item!r}")
        name, value = item.split("=", 1)
        out[name.strip()] = value.strip()
    return out


# ---------------------------------------------------------------------------
# Single series

def save_series(path, values, name: str = "value") -> None:
    values = np.asarray(values, dtype=float)
    lines = [_SERIES_MAGIC, f"# signal: {name}", "index,value"]
    lines.extend(f"{k},{_fmt(v)}" for k, v in enumerate(values))
    Path(path).write_text("\n".join(lines) + "\n")


def load_series(path) -> tuple[np.ndarray, str]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != _SERIES_MAGIC:
        raise FileFormatError(path, 1, f"missing header {_SERIES_MAGIC!r}")
    name = "value"
    row_start = None
    for i, line in enumerate(lines[1:], start=2):
        if line.startswith("# signal:"):
            name = line.split(":", 1)[1].strip()
        elif line == "index,value":
            row_start = i
            break
        elif not line.startswith("#"):
            raise FileFormatError(path, i, "expected 'index,value' column header")
    if row_start is None:
        raise FileFormatError(path, None, "no 'index,value' column header")
    values = []
    for i, line in enumerate(lines[row_start:], start=row_start + 1):
        cells = line.split(",")
        if len(cells) != 2:
            raise FileFormatError(path, i, f"expected 2 columns, got {len(cells)}")
        value = _parse_float(cells[1], path, i, "value")
        if not np.isfinite(value):
            raise FileFormatError(path, i, f"non-finite value: {value}")
        values.append(value)
    if not values:
        raise FileFormatError(path, None, "series has no samples")
    return np.array(values), name


# ---------------------------------------------------------------------------
# Datasets

def save_dataset(path, data: Dataset) -> None:
    lines = [_DATASET_MAGIC]
    lines.append(f"# sample_period: {_fmt(data.sample_period)}")
    lines.append(f"# inputs: {','.join(data.input_names)}")
    lines.append(f"# outputs: {','.join(data.output_names)}")
    if data.units:
        pairs = ",".join(f"{k}={v}" for k, v in data.units.items())
        lines.append(f"# units: {pairs}")
    if data.operating_point:
        pairs = ",".join(f"{k}={_fmt(v)}" for k, v in data.operating_point.items())
        lines.append(f"# operating_point: {pairs}")
    names = data.input_names + data.output_names
    lines.append("index," + ",".join(names))
    table = np.hstack([data.inputs, data.outputs])
    for k in range(data.n_samples):
        lines.append(f"{k}," + ",".join(_fmt(v) for v in table[k]))
    Path(path).write_text("\n".join(lines) + "\n")


def load_dataset(path) -> Dataset:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != _DATASET_MAGIC:
        raise FileFormatError(path, 1, f"missing header {_DATASET_MAGIC!r}")
    sample_period = None
    input_names: tuple[str, ...] | None = None
    output_names: tuple[str, ...] | None = None
    units: dict = {}
    operating_point: dict = {}
    row_start = None
    for i, line in enumerate(lines[1:], start=2):
        if line.startswith("# sample_period:"):
            sample_period = _parse_float(
                line.split(":", 1)[1].strip(), path, i, "sample_period"
            )
        elif line.startswith("# inputs:"):
            input_names = tuple(
                s.strip() for s in line.split(":", 1)[1].split(",") if s.strip()
            )
        elif line.startswith("# outputs:"):
            output_names = tuple(
                s.strip() for s in line.split(":", 1)[1].split(",") if s.strip()
            )
        elif line.startswith("# units:"):
            units = _parse_mapping(line.split(":", 1)[1], path, i)
        elif line.startswith("# operating_point:"):
            raw = _parse_mapping(line.split(":", 1)[1], path, i)
            operating_point = {
                k: _parse_float(v, path, i, "operating point") for k, v in raw.items()
            }
        elif line.startswith("#"):
            continue
        else:
            row_start = i
            break
    if sample_period is None:
        raise FileFormatError(path, None, "missing '# sample_period:' line")
    if sample_period <= 0:
        raise FileFormatError(path, None, f"sample_period must be > 0, got {sample_period}")
    if input_names is None or output_names is None:
        raise FileFormatError(path, None, "missing '# inputs:' or '# outputs:' line")
    if row_start is None:
        raise FileFormatError(path, None, "no column header row")
    expected = "index," + ",".join(input_names + output_names)
    if lines[row_start - 1] != expected:
        raise FileFormatError(
            path, row_start, f"column header {lines[row_start - 1]!r} != {expected!r}"
        )
    n_cols = 1 + len(input_names) + len(output_names)
    rows = []
    for i, line in enumerate(lines[row_start:], start=row_start + 1):
        cells = line.split(",")
        if len(cells) != n_cols:
            raise FileFormatError(path, i, f"expected {n_cols} columns, got {len(cells)}")
        rows.append([_parse_float(c, path, i, "cell") for c in cells[1:]])
    if not rows:
        raise FileFormatError(path, None, "dataset has no rows")
    table = np.array(rows)
    bad = ~np.isfinite(table)
    if bad.any():
        k, j = np.argwhere(bad)[0]
        name = (input_names + output_names)[j]
        raise FileFormatError(path, row_start + 1 + int(k), f"non-finite {name}: {table[k, j]}")
    r = len(input_names)
    return Dataset(
        sample_period=sample_period,
        inputs=table[:, :r],
        outputs=table[:, r:],
        input_names=input_names,
        output_names=output_names,
        units=units,
        operating_point=operating_point,
    )


# ---------------------------------------------------------------------------
# Models

def _channel_to_dict(ch: HammersteinChannel) -> dict:
    dyn = ch.dynamics
    return {
        "p": ch.nonlinearity.degree,
        "r": list(ch.nonlinearity.coeffs),
        "n": dyn.n,
        "a": list(dyn.a),
        "m": dyn.m,
        "b": list(dyn.b),
        "d": dyn.d,
    }


def _channel_from_dict(obj: dict, path, where: str) -> HammersteinChannel:
    try:
        f = StaticNonlinearity(tuple(obj["r"]))
        if f.degree != obj["p"]:
            raise FileFormatError(
                path, None, f"{where}: degree {obj['p']} does not match {len(obj['r'])} coefficients"
            )
        dyn = LinearDynamics(a=tuple(obj["a"]), b=tuple(obj["b"]), d=int(obj["d"]))
        if dyn.n != obj["n"] or dyn.m != obj["m"]:
            raise FileFormatError(path, None, f"{where}: stated orders do not match coefficients")
        return HammersteinChannel(f, dyn)
    except KeyError as e:
        raise FileFormatError(path, None, f"{where}: missing field {e}") from None


def save_model(path, model: MimoHammersteinModel) -> None:
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "n_inputs": model.n_inputs,
        "n_outputs": model.n_outputs,
        "input_names": list(model.input_names),
        "output_names": list(model.output_names),
        "operating_point": {k: float(v) for k, v in model.operating_point.items()},
        "metadata": model.metadata,
        "channels": [[_channel_to_dict(ch) for ch in row] for row in model.channels],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_model(path) -> MimoHammersteinModel:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FileFormatError(path, e.lineno, f"invalid JSON: {e.msg}") from None
    if not isinstance(doc, dict):
        raise FileFormatError(path, None, f"expected a JSON object, got {type(doc).__name__}")
    version = doc.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise FileFormatError(
            path, None, f"unsupported schema_version {version!r} (expected {MODEL_SCHEMA_VERSION})"
        )
    try:
        channels = tuple(
            tuple(_channel_from_dict(ch, path, f"channel[{s}][{j}]") for j, ch in enumerate(row))
            for s, row in enumerate(doc["channels"])
        )
        model = MimoHammersteinModel(
            channels=channels,
            input_names=tuple(doc["input_names"]),
            output_names=tuple(doc["output_names"]),
            operating_point=dict(doc.get("operating_point", {})),
            metadata=dict(doc.get("metadata", {})),
        )
        arity = (doc["n_inputs"], doc["n_outputs"])
    except KeyError as e:
        raise FileFormatError(path, None, f"missing field {e}") from None
    except (TypeError, ValueError) as e:
        if isinstance(e, FileFormatError):
            raise
        raise FileFormatError(path, None, str(e)) from None
    if arity != (model.n_inputs, model.n_outputs):
        raise FileFormatError(path, None, "stated arity does not match the channel grid")
    return model
