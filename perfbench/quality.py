"""Correctness checks and quality scores read from ``identify``'s artifacts.

Scores compare the identified model with the ``paper-gtaw`` preset that
generated the data.  Hold-out errors are read from the
``validation_trace_<output>.txt`` files.  Next to them goes the preset's own
hold-out error under the same protocol (free run from a zero state, or
one-step-ahead prediction with lags before the window taken as zero),
computed here with ``scipy.signal.lfilter`` independently of the package:
it shows how much of the error the validation protocol alone causes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from scipy.signal import lfilter


class CheckFailed(Exception):
    """An identify run broke one of the benchmark's correctness checks."""


def artifact_digest(outdir: Path) -> str:
    """SHA-256 over every artifact's name and bytes."""
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def read_trace(path: Path, n_expected: int) -> np.ndarray:
    """(n, 3) array of actual, predicted, error; checks the file's own arithmetic."""
    try:
        lines = path.read_text().splitlines()[1:]
    except OSError as e:
        raise CheckFailed(f"{path.name} unreadable: {e}") from e
    if len(lines) != n_expected:
        raise CheckFailed(f"{path.name}: {len(lines)} rows, expected {n_expected}")
    try:
        rows = np.array([[float(c) for c in line.split()[1:4]] for line in lines])
    except ValueError as e:
        raise CheckFailed(f"{path.name}: {e}") from e
    if not np.all(np.isfinite(rows)):
        raise CheckFailed(f"{path.name}: non-finite values")
    if not np.array_equal(rows[:, 0] - rows[:, 1], rows[:, 2]):
        raise CheckFailed(f"{path.name}: error column != actual - predicted")
    return rows


def _numerator(ch) -> np.ndarray:
    return np.concatenate([np.zeros(ch.dynamics.d), ch.dynamics.b])


def _poly(ch, u: np.ndarray) -> np.ndarray:
    return u + sum(r * u**i for i, r in enumerate(ch.nonlinearity.coeffs, start=2))


def preset_prediction(preset, inputs: np.ndarray, actual: np.ndarray, one_step: bool) -> np.ndarray:
    """The preset's hold-out prediction under identify's validation protocol."""
    pred = np.zeros_like(actual)
    for s, row in enumerate(preset.channels):
        a = np.asarray(row[0].dynamics.a)
        for j, ch in enumerate(row):
            v = _poly(ch, inputs[:, j])
            if one_step:
                pred[:, s] += lfilter(_numerator(ch), [1.0], v)
            else:
                pred[:, s] += lfilter(_numerator(ch), np.concatenate([[1.0], a]), v)
        if one_step:
            pred[:, s] -= lfilter(np.concatenate([[0.0], a]), [1.0], actual[:, s])
    return pred


def _coefficients(model, width: dict) -> np.ndarray:
    """a, r and delayed b of every channel, zero-padded to common widths."""
    parts = []
    for s, row in enumerate(model.channels):
        a = np.asarray(row[0].dynamics.a)
        parts.append(np.pad(a, (0, width[("a", s)] - len(a))))
        for j, ch in enumerate(row):
            r = np.asarray(ch.nonlinearity.coeffs)
            b = _numerator(ch)
            parts.append(np.pad(r, (0, width[("r", s, j)] - len(r))))
            parts.append(np.pad(b, (0, width[("b", s, j)] - len(b))))
    return np.concatenate(parts)


def param_rel_error(model, preset) -> float:
    """||theta - theta_true|| / ||theta_true|| over a, r and delayed b."""
    width: dict = {}
    for m in (model, preset):
        for s, row in enumerate(m.channels):
            width[("a", s)] = max(width.get(("a", s), 0), row[0].dynamics.n)
            for j, ch in enumerate(row):
                key_r, key_b = ("r", s, j), ("b", s, j)
                width[key_r] = max(width.get(key_r, 0), len(ch.nonlinearity.coeffs))
                width[key_b] = max(width.get(key_b, 0), ch.dynamics.d + len(ch.dynamics.b))
    est, true = _coefficients(model, width), _coefficients(preset, width)
    return float(np.linalg.norm(est - true) / np.linalg.norm(true))


def score(hammid, preset, outdir: Path, data) -> dict:
    """Check one identify's artifacts and score the model against the preset.

    ``data`` is the dataset as generated (inputs at physical scale); the
    split and the validation protocol are read from ``resolved_config.json``.
    """
    try:
        cfg = json.loads((outdir / "resolved_config.json").read_text())
        n_train = int(cfg["n_train"])
        one_step = bool(cfg["validation"]["one_step_ahead"])
        report = (outdir / "structure_report.txt").read_text()
    except (OSError, ValueError, KeyError) as e:
        raise CheckFailed(f"artifacts unreadable: {e!r}") from e
    try:
        model = hammid.persistence.load_model(outdir / "model.json")
    except (OSError, ValueError) as e:
        raise CheckFailed(f"model.json does not reload: {e}") from e
    n_test = data.n_samples - n_train
    actual = np.empty((n_test, model.n_outputs))
    err = np.empty(model.n_outputs)
    for s, name in enumerate(model.output_names):
        rows = read_trace(outdir / f"validation_trace_{name}.txt", n_test)
        actual[:, s] = rows[:, 0]
        err[s] = np.sqrt(np.mean(rows[:, 2] ** 2))
    ops = np.array([data.operating_point[name] for name in data.input_names])
    inputs = data.inputs[n_train:] - ops
    ref = actual - preset_prediction(preset, inputs, actual, one_step)
    ref_rms = np.sqrt(np.mean(ref**2, axis=0))
    delays = [[ch.dynamics.d for ch in row] for row in model.channels]
    true_delays = [[ch.dynamics.d for ch in row] for row in preset.channels]
    hits = [d == t for drow, trow in zip(delays, true_delays) for d, t in zip(drow, trow)]
    return {
        "holdout_rms": {n: float(v) for n, v in zip(model.output_names, err)},
        "preset_holdout_rms": {n: float(v) for n, v in zip(model.output_names, ref_rms)},
        "holdout_rms_ratio": {n: float(v) for n, v in zip(model.output_names, err / ref_rms)},
        "delays": delays,
        "delays_recovered": sum(hits) / len(hits),
        "param_rel_error": param_rel_error(model, preset),
        "orders": [
            {"n": row[0].dynamics.n,
             "channels": [[ch.nonlinearity.degree, ch.dynamics.m, ch.dynamics.d] for ch in row]}
            for row in model.channels
        ],
        "structure_report": report.splitlines(),
    }


def inputs_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()
