"""Hammerstein model structures and discrete-time simulation.

A Hammerstein channel passes its input through a static polynomial
nonlinearity and then through linear rational dynamics with an integer
sample delay.  A multi-input multi-output assembly places one channel per
(output, input) pair; every channel feeding the same output shares that
output's denominator polynomial, so the output is the plain superposition
of its channel responses.

All model values live at deviation scale (signal minus operating point).
The operating point is carried as metadata for I/O layers; simulation never
touches it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter


@dataclass(frozen=True)
class StaticNonlinearity:
    """Memoryless polynomial v = u + sum_{i=2..p} r_i u^i.

    The linear coefficient is fixed at 1 and there is no constant term, so
    the map is identity for degree 1 and always sends 0 to 0.  ``coeffs``
    holds r_2 .. r_p; an empty tuple is the identity.
    """

    coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) + 1


def eval_nonlinearity(f: StaticNonlinearity, u):
    """Evaluate the polynomial map at a scalar or an array of inputs."""
    arr = np.asarray(u, dtype=float)
    v = arr.copy()
    for i, r in enumerate(f.coeffs, start=2):
        v = v + r * arr**i
    return v if v.ndim else float(v)


@dataclass(frozen=True)
class LinearDynamics:
    """Rational discrete-time filter B(q^-1)/A(q^-1) with sample delay d.

    ``a`` holds a_1..a_n of the monic denominator A(q^-1) = 1 + sum a_i q^-i,
    ``b`` holds the numerator b_0..b_m, and ``d`` >= 0 delays the whole
    numerator by d samples.
    """

    a: tuple[float, ...]
    b: tuple[float, ...]
    d: int = 0

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(x) for x in self.a))
        object.__setattr__(self, "b", tuple(float(x) for x in self.b))
        if not self.b:
            raise ValueError("numerator needs at least one coefficient")
        if self.d < 0:
            raise ValueError(f"delay must be non-negative, got {self.d}")

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def m(self) -> int:
        return len(self.b) - 1

    def pole_radii(self) -> np.ndarray:
        if not self.a:
            return np.zeros(0)
        return np.abs(np.roots((1.0,) + self.a))

    @property
    def is_stable(self) -> bool:
        radii = self.pole_radii()
        return bool(radii.size == 0 or radii.max() < 1.0)


@dataclass(frozen=True)
class HammersteinChannel:
    """Static nonlinearity followed by linear dynamics (in that order)."""

    nonlinearity: StaticNonlinearity
    dynamics: LinearDynamics


def simulate_linear(dyn: LinearDynamics, v) -> np.ndarray:
    """Run v through B(q^-1) q^-d / A(q^-1) with zero initial conditions.

    Implements y(k) = -sum_i a_i y(k-i) + sum_j b_j v(k-d-j), with y and v
    taken as zero for negative indices.  Output length equals input length.
    """
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise ValueError("input series is empty")
    num = (0.0,) * dyn.d + dyn.b
    den = (1.0,) + dyn.a
    return lfilter(num, den, v)


def simulate_channel(ch: HammersteinChannel, u) -> np.ndarray:
    """Simulate one channel: nonlinearity first, then the linear dynamics."""
    return simulate_linear(ch.dynamics, eval_nonlinearity(ch.nonlinearity, u))


@dataclass(frozen=True)
class MimoHammersteinModel:
    """Grid of Hammerstein channels indexed (output, input).

    Channels on one output row must share the denominator coefficients so
    the row response is a single rational dynamic driven by the sum of the
    per-input numerator outputs.
    """

    channels: tuple[tuple[HammersteinChannel, ...], ...]
    input_names: tuple[str, ...]
    output_names: tuple[str, ...]
    operating_point: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.channels)
        object.__setattr__(self, "channels", rows)
        object.__setattr__(self, "input_names", tuple(self.input_names))
        object.__setattr__(self, "output_names", tuple(self.output_names))
        if not rows or not rows[0]:
            raise ValueError("model needs at least one input and one output")
        width = len(rows[0])
        for s, row in enumerate(rows):
            if len(row) != width:
                raise ValueError("channel grid is ragged")
            for ch in row:
                if ch.dynamics.a != row[0].dynamics.a:
                    raise ValueError(
                        f"channels of output {s} do not share a denominator"
                    )
        if len(self.output_names) != len(rows):
            raise ValueError("output_names does not match the channel grid")
        if len(self.input_names) != width:
            raise ValueError("input_names does not match the channel grid")

    @property
    def n_inputs(self) -> int:
        return len(self.channels[0])

    @property
    def n_outputs(self) -> int:
        return len(self.channels)


def simulate_mimo(model: MimoHammersteinModel, inputs) -> np.ndarray:
    """Simulate all outputs for deviation-scale inputs.

    ``inputs`` is an (N, n_inputs) array or a sequence of equal-length
    series.  Returns an (N, n_outputs) array; each output is the sum of its
    channel responses in fixed input order.
    """
    if isinstance(inputs, np.ndarray):
        U = inputs.astype(float).reshape(len(inputs), -1)
    else:
        series = [np.asarray(u, dtype=float) for u in inputs]
        lengths = {len(u) for u in series}
        if len(lengths) != 1:
            raise ValueError(f"input series lengths differ: {sorted(lengths)}")
        U = np.column_stack(series)
    if U.shape[1] != model.n_inputs:
        raise ValueError(
            f"model expects {model.n_inputs} inputs, got {U.shape[1]}"
        )
    out = np.zeros((U.shape[0], model.n_outputs))
    for s, row in enumerate(model.channels):
        for j, ch in enumerate(row):
            out[:, s] += simulate_channel(ch, U[:, j])
    return out


def max_pole_radius(model: MimoHammersteinModel) -> float:
    """Largest denominator root radius over all outputs (< 1 means stable)."""
    radii = [row[0].dynamics.pole_radii() for row in model.channels]
    return float(max((r.max() for r in radii if r.size), default=0.0))


# ---------------------------------------------------------------------------
# Datasets

@dataclass
class Dataset:
    """Uniformly sampled multi-input multi-output time series.

    ``inputs`` is (N, n_inputs) and ``outputs`` (N, n_outputs); all series
    share the same length.  ``operating_point`` maps signal names to nominal
    levels for signals recorded at physical scale.
    """

    sample_period: float
    inputs: np.ndarray
    outputs: np.ndarray
    input_names: tuple[str, ...]
    output_names: tuple[str, ...]
    units: dict = field(default_factory=dict)
    operating_point: dict = field(default_factory=dict)

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        self.outputs = np.asarray(self.outputs, dtype=float)
        if self.inputs.ndim == 1:
            self.inputs = self.inputs.reshape(-1, 1)
        if self.outputs.ndim == 1:
            self.outputs = self.outputs.reshape(-1, 1)
        self.input_names = tuple(self.input_names)
        self.output_names = tuple(self.output_names)
        if self.sample_period <= 0:
            raise ValueError(f"sample_period must be > 0, got {self.sample_period}")
        if self.inputs.shape[1] != len(self.input_names):
            raise ValueError("input_names does not match the input columns")
        if self.outputs.shape[1] != len(self.output_names):
            raise ValueError("output_names does not match the output columns")
        if self.inputs.shape[0] != self.outputs.shape[0]:
            raise ValueError(
                f"input length {self.inputs.shape[0]} != output length {self.outputs.shape[0]}"
            )
        if self.inputs.shape[0] == 0:
            raise ValueError("dataset is empty")
        for values, names in ((self.inputs, self.input_names), (self.outputs, self.output_names)):
            bad = ~np.isfinite(values)
            if bad.any():
                k, j = np.argwhere(bad)[0]
                raise ValueError(
                    f"series {names[j]!r} has non-finite value {values[k, j]} at sample {k}"
                )

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.inputs.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.outputs.shape[1]


# ---------------------------------------------------------------------------
# Built-in model: dual-input dual-output weld-pool dynamics identified from
# pulsed gas tungsten arc welding experiments.  Inputs are peak current I_p
# (around 150 A) and wire-feed speed V_f (around 7 cm/s); outputs are
# backside width W_b and reinforcement height H_f.

_GTAW_A1 = (-1.73603, 0.728305, 0.580712, -0.85552, 0.320009)
_GTAW_A2 = (-1.29125, 0.253601, 0.543266, -0.69655, 0.240607)

_GTAW_B11 = (0.004744, -0.0031, 0.000158, -0.0015)
_GTAW_B12 = (0.00568, 0.002351, 0.000844, 0.000724, -0.00253, -0.00333)
_GTAW_B21 = (0.001614, -0.0047, -0.00742, 0.0000138, -0.00924, 0.002941)
_GTAW_B22 = (0.005929, -0.01733, 0.010646, -0.01391, -0.00406, -0.02969)

_GTAW_F11 = (-0.01476,)
_GTAW_F12 = (0.002972, -0.00315, 0.000152)
_GTAW_F21 = (-0.04142,)
_GTAW_F22 = (0.115034, 0.133773, -0.02614)


def gtaw_pool_model() -> MimoHammersteinModel:
    """Built-in weld-pool model (preset name "paper-gtaw").

    Coefficients are stored verbatim from the published identification.
    Output 1 (W_b) responds to both inputs with delay 1 through the first
    denominator; output 2 (H_f) responds with delay 3 through the second.
    The originally stated orders are kept in the metadata; they disagree in
    places with the printed polynomials, which are taken as authoritative.
    """
    def ch(f, b, d, a):
        return HammersteinChannel(
            StaticNonlinearity(f), LinearDynamics(a=a, b=b, d=d)
        )

    return MimoHammersteinModel(
        channels=(
            (ch(_GTAW_F11, _GTAW_B11, 1, _GTAW_A1), ch(_GTAW_F12, _GTAW_B12, 1, _GTAW_A1)),
            (ch(_GTAW_F21, _GTAW_B21, 3, _GTAW_A2), ch(_GTAW_F22, _GTAW_B22, 3, _GTAW_A2)),
        ),
        input_names=("I_p", "V_f"),
        output_names=("W_b", "H_f"),
        operating_point={"I_p": 150.0, "V_f": 7.0},
        metadata={
            "process": "pulsed GTAW with wire filler, mild steel butt joint",
            "travel_speed_V_w0": "1.9 mm/s",
            "stated_orders_output_1": "d=1, p=2, m=5, n=3",
            "stated_orders_output_2": "d=3, p=4, m=5, n=5",
        },
    )


PRESET_MODELS = {"paper-gtaw": gtaw_pool_model}


def preset_model(name: str) -> MimoHammersteinModel:
    """Return a built-in model by preset name."""
    try:
        factory = PRESET_MODELS[name]
    except KeyError:
        available = ", ".join(sorted(PRESET_MODELS))
        raise KeyError(f"unknown preset {name!r}; available: {available}") from None
    return factory()
