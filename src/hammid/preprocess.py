"""Conditioning of raw experimental series before identification.

Two steps: a median filter against impulsive sensor noise, and DC removal
so the estimator sees deviation-scale data.  DC comes off either as the
series mean or as a declared reference level (the operating point).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import Dataset


def median_filter(x, window: int) -> np.ndarray:
    """Sliding median with boundary samples replicated at the edges.

    The series is padded by window // 2 copies of its first and last
    samples, and each output is the middle element of one window of the
    padded series once partitioned.  The window is odd, so every median is
    an element of its window.
    """
    x = np.asarray(x, dtype=float)
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 1, got {window}")
    if window > x.size:
        raise ValueError(f"window {window} exceeds series length {x.size}")
    if window == 1:
        return x.copy()
    half = window // 2
    windows = sliding_window_view(np.pad(x, half, mode="edge"), window)
    return np.partition(windows, half, axis=-1)[:, half]


def remove_dc(x, reference: float | None = None) -> tuple[np.ndarray, float]:
    """Subtract the DC component; returns (deviation series, offset removed).

    With ``reference`` None the series mean is removed, otherwise the given
    reference level (e.g. the operating point).  Adding the offset back
    reconstructs the input exactly.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("series is empty")
    offset = float(np.mean(x)) if reference is None else float(reference)
    return x - offset, offset


def prepare_dataset(
    data: Dataset, median_window: int, filter_inputs: bool = False
) -> tuple[Dataset, dict]:
    """Filter and de-trend a dataset for identification.

    Every signal is median filtered, then shifted to deviation scale.  The
    window is ``median_window`` for outputs, and for inputs too if
    ``filter_inputs`` (else 1: none).  Signals with a declared operating
    point lose that reference, the rest lose their mean.  Returns the
    deviation-scale dataset and the offsets that were removed, inputs
    first.
    """
    offsets: dict[str, float] = {}

    def condition(series, names, window):
        out = np.empty_like(series)
        for j, name in enumerate(names):
            out[:, j], offsets[name] = remove_dc(
                median_filter(series[:, j], window), data.operating_point.get(name)
            )
        return out

    inputs = condition(data.inputs, data.input_names, median_window if filter_inputs else 1)
    outputs = condition(data.outputs, data.output_names, median_window)
    return replace(data, inputs=inputs, outputs=outputs, units=dict(data.units),
                   operating_point={}), offsets
