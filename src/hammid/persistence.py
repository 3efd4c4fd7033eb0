"""Dataset, series, simulated-trace, validation-trace and model file I/O.

All formats are plain text with full shortest-round-trip decimal numbers
(Python ``repr`` of a float), so load(save(x)) reproduces x bit for bit.
Every number read, header values and model JSON included, must be finite.

The text tables share one layout (comma separated, LF newlines): a magic
line, ``# key: value`` lines, an ``index,<names>`` column header, then one
row per sample.  Dataset (``units`` and ``operating_point`` optional)::

    # hammid dataset v1
    # sample_period: 1.0
    # inputs: I_p,V_f
    # outputs: W_b,H_f
    # units: I_p=A,V_f=cm/s
    # operating_point: I_p=150.0
    index,I_p,V_f,W_b,H_f
    0,148.0,9.0,0.01,0.0

Series (one signal, e.g. an excitation schedule)::

    # hammid series v1
    # signal: I_p
    index,value
    0,148.0

Simulated trace (the outputs ``hammid simulate`` computes)::

    # hammid trace v1
    index,W_b,H_f
    0,0.0,0.0

A validation trace (one output's hold-out samples, written by ``identify``
and ``validate``) has one header line naming the output and space-separated
rows of index, actual, predicted and error (actual - predicted)::

    index actual predicted error  (W_b)
    0 0.5 0.25 0.25

It is written only, never read back.  Every one of these per-sample files is
written by one row writer, ``_WRITE_ROWS`` rows at a time, never held whole.

Model and config files are JSON objects read by :func:`read_json_object` and
typed by one rule, :func:`check_type`, naming each value by its JSON path
(``channels[0][1].d``).  Model files carry a ``schema_version`` (unknown ones
are rejected) and store channels per output row as {p, r, n, a, m, b, d}.
"""

from __future__ import annotations

import json
import math
from functools import partial
from pathlib import Path

import numpy as np

from .model import (
    Dataset,
    HammersteinChannel,
    LinearDynamics,
    MimoHammersteinModel,
    StaticNonlinearity,
    check_signal_names,
)

MODEL_SCHEMA_VERSION = 1
_DATASET_MAGIC = "# hammid dataset v1"
_SERIES_MAGIC = "# hammid series v1"
_TRACE_MAGIC = "# hammid trace v1"
_WRITE_ROWS = 4096  # rows of a per-sample file formatted at a time, not the whole file


class FileFormatError(ValueError):
    """Malformed file; carries the path and 1-based line number."""

    def __init__(self, path, line: int | None, message: str):
        self.path = str(path)
        self.line = line
        where = f"{path}:{line}" if line is not None else str(path)
        super().__init__(f"{where}: {message}")


def _parse_float(cell: str, path, line: int | None, what: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise FileFormatError(path, line, f"non-numeric {what}: {cell!r}") from None
    if not math.isfinite(value):
        raise FileFormatError(path, line, f"non-finite {what}: {cell}")
    return value


def _parse_mapping(path, line: int | None, text: str) -> dict:
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
# Text tables

def _write_rows(path, head: str, sep: str, *columns) -> None:
    """Write ``head``, then one line per sample: its index and the ``repr`` of
    its value in each of ``columns`` (series, or tables of them), joined by
    ``sep``, formatted and written ``_WRITE_ROWS`` rows at a time."""
    n = len(columns[0])
    with open(path, "w") as fh:
        fh.write(head)
        for s in range(0, n, _WRITE_ROWS):
            # the index rides as a float column: exact, and "%d" prints it whole
            chunk = np.column_stack([np.arange(s, min(s + _WRITE_ROWS, n), dtype=float),
                                     *(c[s:s + _WRITE_ROWS] for c in columns)])
            row = "%d" + (sep + "%r") * (chunk.shape[1] - 1) + "\n"
            fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))


def _write_table(path, magic: str, meta: dict, names, *columns) -> None:
    """Write ``magic``, one ``# key: value`` line per ``meta`` item, the
    ``index,<names>`` header and the comma-separated rows of ``columns``."""
    head = [magic, *(f"# {key}: {value}" for key, value in meta.items()),
            "index," + ",".join(names)]
    _write_rows(path, "\n".join(head) + "\n", ",", *columns)


def _read_table(path, magic: str):
    """Parse a file written by :func:`_write_table`.

    Returns ``(meta, header_line, names, table)``: ``meta`` maps each
    ``# key: value`` key to its (line number, value text), ``names`` are the
    header's columns after ``index`` and ``table`` is the finite
    ``(rows, len(names))`` array.  The index column is not read.

    The rows are parsed by one ``np.loadtxt`` call.  When it fails, or its
    table is not one row per line and one column per header name, the rows
    are parsed again cell by cell, so that an error names its line and
    column.
    """
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != magic:
        raise FileFormatError(path, 1, f"missing header {magic!r}")
    meta = {}
    i = 1
    while i < len(lines) and lines[i].startswith("#"):
        key, colon, value = lines[i][1:].partition(":")
        if colon:
            meta[key.strip()] = (i + 1, value.strip())
        i += 1
    header = lines[i].split(",") if i < len(lines) else None
    if header is None or header[0] != "index":
        where = i + 1 if header else None
        raise FileFormatError(path, where, "expected an 'index,...' column header")
    names = tuple(header[1:])
    body = lines[i + 1:]
    table = None
    if body:
        try:
            table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    if table is not None and table.shape == (len(body), len(header)):
        table = np.ascontiguousarray(table[:, 1:])
    else:
        table = _parse_cells(path, body, i + 2, header)
    bad = ~np.isfinite(table)
    if bad.any():
        k, j = np.argwhere(bad)[0]
        raise FileFormatError(path, i + 2 + int(k), f"non-finite {names[j]}: {table[k, j]}")
    return meta, i + 1, names, table


def _parse_cells(path, body: list, first_line: int, header: list) -> np.ndarray:
    """Parse table rows cell by cell with ``float``; the first bad row or
    cell raises a :class:`FileFormatError` naming its line (and column)."""
    names = header[1:]
    rows = []
    for line_no, line in enumerate(body, start=first_line):
        cells = line.split(",")
        if len(cells) != len(header):
            raise FileFormatError(
                path, line_no, f"expected {len(header)} columns, got {len(cells)}"
            )
        try:
            rows.append([float(c) for c in cells[1:]])
        except ValueError:
            for name, cell in zip(names, cells[1:]):
                _parse_float(cell, path, line_no, name)
            raise
    if not rows:
        raise FileFormatError(path, None, "no data rows")
    return np.array(rows)


def save_series(path, values, name: str = "value") -> None:
    _write_table(path, _SERIES_MAGIC, {"signal": name}, ("value",), values)


def load_series(path) -> tuple[np.ndarray, str]:
    meta, header_line, names, table = _read_table(path, _SERIES_MAGIC)
    if names != ("value",):
        raise FileFormatError(path, header_line, "expected 'index,value' column header")
    return table.ravel(), meta.get("signal", (None, "value"))[1]


def save_trace(path, output_names, outputs) -> None:
    """Write simulated outputs, one column per output name."""
    _write_table(path, _TRACE_MAGIC, {}, output_names, outputs)


def save_validation_trace(path, name: str, actual, predicted) -> None:
    """Write output ``name``'s hold-out trace: index, actual, predicted and
    error (actual - predicted) per sample."""
    _write_rows(path, f"index actual predicted error  ({name})\n", " ",
                actual, predicted, np.subtract(actual, predicted))


def save_dataset(path, data: Dataset) -> None:
    meta = {
        "sample_period": repr(float(data.sample_period)),
        "inputs": ",".join(data.input_names),
        "outputs": ",".join(data.output_names),
    }
    optional = {
        "units": ",".join(f"{k}={v}" for k, v in data.units.items()),
        "operating_point": ",".join(
            f"{k}={float(v)!r}" for k, v in data.operating_point.items()
        ),
    }
    meta |= {key: value for key, value in optional.items() if value}
    _write_table(path, _DATASET_MAGIC, meta, data.input_names + data.output_names,
                 data.inputs, data.outputs)


def load_dataset(path) -> Dataset:
    meta, header_line, names, table = _read_table(path, _DATASET_MAGIC)
    for key in ("sample_period", "inputs", "outputs"):
        if key not in meta:
            raise FileFormatError(path, None, f"missing '# {key}:' line")
    line, text = meta["sample_period"]
    sample_period = _parse_float(text, path, line, "sample_period")
    if sample_period <= 0:
        raise FileFormatError(path, line, f"sample_period must be > 0, got {sample_period}")
    inputs, outputs = (
        tuple(s.strip() for s in meta[key][1].split(",") if s.strip())
        for key in ("inputs", "outputs")
    )
    if names != inputs + outputs:
        raise FileFormatError(path, header_line, f"columns {','.join(names)!r} != "
                              f"inputs and outputs {','.join(inputs + outputs)!r}")
    try:
        check_signal_names(names)
    except ValueError as e:
        raise FileFormatError(path, header_line, str(e)) from None
    units, raw_op = (
        _parse_mapping(path, *meta.get(key, (None, ""))) for key in ("units", "operating_point")
    )
    op_line = meta.get("operating_point", (None,))[0]
    return Dataset(
        sample_period=sample_period,
        inputs=table[:, :len(inputs)],
        outputs=table[:, len(inputs):],
        input_names=inputs,
        output_names=outputs,
        units=units,
        operating_point={
            k: _parse_float(v, path, op_line, f"operating point {k}") for k, v in raw_op.items()
        },
    )


# ---------------------------------------------------------------------------
# JSON documents: the config and the model file

# accepted besides equal types: an integer for a real, and a list for the
# config's ``fixed_orders``, whose default is null
_WIDENINGS = {(int, float), (list, type(None))}

# the JSON type of each field of a model file and of each channel in it
_MODEL_FIELDS = {"schema_version": int, "n_inputs": int, "n_outputs": int, "input_names": list,
                 "output_names": list, "channels": list, "operating_point": dict, "metadata": dict}
_CHANNEL_FIELDS = {"p": int, "r": list, "n": int, "a": list, "m": int, "b": list, "d": int}


def read_json_object(path) -> dict:
    """Parse JSON file ``path``, whose top level must be an object and every
    number finite; a :class:`FileFormatError` names the path (and line)."""
    number = partial(_parse_float, path=path, line=None, what="number")
    try:
        doc = json.loads(Path(path).read_text(), parse_float=number, parse_constant=number)
    except json.JSONDecodeError as e:
        raise FileFormatError(path, e.lineno, f"invalid JSON: {e.msg}") from None
    if not isinstance(doc, dict):
        raise FileFormatError(path, None, f"expected a JSON object, got {type(doc).__name__}")
    return doc


def check_type(name: str, value, want: type) -> None:
    """The type rule: ``value``, at dotted key ``name``, must have JSON type
    ``want`` or one of its widenings."""
    have = type(value)
    if have is not want and (have, want) not in _WIDENINGS:
        raise ValueError(f"key {name!r} must be {want.__name__}, got {have.__name__} {value!r}")


def _check_items(name: str, values: list, want: type) -> None:
    """Apply :func:`check_type` to each item of the list at dotted key ``name``."""
    for k, value in enumerate(values):
        check_type(f"{name}[{k}]", value, want)


def check_entry(value, where: str, fields: dict, optional: tuple = ()) -> None:
    """Check that ``value``, at dotted key ``where`` ("" at top level), is an object
    holding each of ``fields`` not in ``optional``, of the type ``fields`` gives."""
    check_type(where, value, dict)
    for key, want in fields.items():
        name = f"{where}.{key}" if where else key
        if key in value:
            check_type(name, value[key], want)
        elif key not in optional:
            raise ValueError(f"missing field {name!r}")


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


def _channel_from_dict(obj, where: str) -> HammersteinChannel:
    check_entry(obj, where, _CHANNEL_FIELDS)
    for key in ("r", "a", "b"):
        _check_items(f"{where}.{key}", obj[key], float)
    f = StaticNonlinearity(obj["r"])
    if f.degree != obj["p"]:
        raise ValueError(f"{where}: degree {obj['p']} does not match {len(obj['r'])} coefficients")
    dyn = LinearDynamics(a=obj["a"], b=obj["b"], d=obj["d"])
    if dyn.n != obj["n"] or dyn.m != obj["m"]:
        raise ValueError(f"{where}: stated orders do not match coefficients")
    return HammersteinChannel(f, dyn)


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
    """Read a model file written by :func:`save_model`.

    Fields have the JSON types of ``_MODEL_FIELDS`` and ``_CHANNEL_FIELDS``,
    list items and ``operating_point`` values too; a mistyped field and
    orders that disagree with the coefficients alike raise a
    :class:`FileFormatError` naming the path.
    """
    doc = read_json_object(path)
    try:
        version = doc.get("schema_version")
        if version != MODEL_SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {version!r} "
                             f"(expected {MODEL_SCHEMA_VERSION})")
        check_entry(doc, "", _MODEL_FIELDS, optional=("operating_point", "metadata"))
        for key, want in (("input_names", str), ("output_names", str), ("channels", list)):
            _check_items(key, doc[key], want)
        for name, value in doc.get("operating_point", {}).items():
            check_type(f"operating_point.{name}", value, float)
        model = MimoHammersteinModel(
            [[_channel_from_dict(ch, f"channels[{s}][{j}]") for j, ch in enumerate(row)]
             for s, row in enumerate(doc["channels"])],
            doc["input_names"], doc["output_names"],
            doc.get("operating_point", {}), doc.get("metadata", {}),
        )
        if (doc["n_inputs"], doc["n_outputs"]) != (model.n_inputs, model.n_outputs):
            raise ValueError("stated arity does not match the channel grid")
    except ValueError as e:
        raise FileFormatError(path, None, str(e)) from None
    return model
