"""Hold-out evaluation of identified models.

Validation is free-run by default: the model sees only the test inputs and
its outputs are compared against the measured ones, which is the stricter
check (errors accumulate instead of being reset by measurements each step).
One-step-ahead prediction, where measured past outputs feed the difference
equation, is available as an option.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .model import (
    Dataset,
    MimoHammersteinModel,
    eval_nonlinearity,
    max_pole_radius,
    simulate_mimo,
)

# Hold-out error statistics reported for the original 70-sample weld-pool
# experiment (mm).  Kept as reference constants only: the raw welding records
# were never published, so these numbers cannot be reproduced from shipped
# data.
REPORTED_HOLDOUT_REFERENCE = {
    "W_b": {"mean_error": 0.07973, "std_error": 0.07769},
    "H_f": {"mean_error": -0.07977, "std_error": 0.03096},
}


def split_dataset(data: Dataset, n_train: int) -> tuple[Dataset, Dataset]:
    """Contiguous prefix/suffix split preserving time order (no shuffling)."""
    if not 0 < n_train < data.n_samples:
        raise ValueError(
            f"n_train must lie strictly between 0 and {data.n_samples}, got {n_train}"
        )

    def piece(sl):
        return replace(data, inputs=data.inputs[sl].copy(), outputs=data.outputs[sl].copy(),
                       units=dict(data.units), operating_point=dict(data.operating_point))

    return piece(slice(0, n_train)), piece(slice(n_train, data.n_samples))


@dataclass(frozen=True)
class OutputErrors:
    """Error statistics of one output over the test window."""

    name: str
    mean_error: float
    std_error: float
    rms_error: float
    max_abs_error: float
    n_test: int


@dataclass(frozen=True)
class ValidationReport:
    outputs: tuple[OutputErrors, ...]
    actual: np.ndarray     # (N_test, n_outputs)
    predicted: np.ndarray  # (N_test, n_outputs)
    one_step_ahead: bool
    std_ddof: int
    max_pole_radius: float  # of the evaluated model; >= 1 is unstable

    @property
    def errors(self) -> np.ndarray:
        return self.actual - self.predicted


def _one_step_prediction(model: MimoHammersteinModel, data: Dataset) -> np.ndarray:
    """Predict each sample from measured past outputs and the inputs.

    Both terms are FIR filters, of f(u_j) by the delayed numerators and of
    the measured y by a_1..a_n, with zero history before the first sample:
    each is a convolution cut to the series' length.
    """
    N = data.n_samples
    pred = np.zeros((N, model.n_outputs))
    for s, row in enumerate(model.channels):
        for j, ch in enumerate(row):
            v = eval_nonlinearity(ch.nonlinearity, data.inputs[:, j])
            pred[:, s] += np.convolve(v, (0.0,) * ch.dynamics.d + ch.dynamics.b)[:N]
        pred[:, s] -= np.convolve(data.outputs[:, s], (0.0,) + row[0].dynamics.a)[:N]
    return pred


def evaluate(
    model: MimoHammersteinModel,
    test: Dataset,
    one_step_ahead: bool = False,
    std_ddof: int = 0,
) -> ValidationReport:
    """Compare model output against measured output on a test dataset.

    Data must be at deviation scale, with the model's input and output
    names in the model's order; columns are matched by position, so a
    dataset in another order is rejected.  ``std_ddof`` selects the standard
    deviation convention (0 = population, 1 = sample); any other value is
    rejected.
    """
    if std_ddof not in (0, 1):
        raise ValueError(f"std_ddof must be 0 (population) or 1 (sample), got {std_ddof!r}")
    if test.n_inputs != model.n_inputs or test.n_outputs != model.n_outputs:
        raise ValueError(
            f"model is {model.n_inputs}x{model.n_outputs}, "
            f"dataset is {test.n_inputs}x{test.n_outputs}"
        )
    for kind, got, want in (("inputs", test.input_names, model.input_names),
                            ("outputs", test.output_names, model.output_names)):
        if got != want:
            raise ValueError(f"dataset {kind} {list(got)} differ from the model's {list(want)}")
    if one_step_ahead:
        predicted = _one_step_prediction(model, test)
    else:
        predicted = simulate_mimo(model, test.inputs)
    actual = test.outputs.copy()
    errors = actual - predicted
    stats = tuple(
        OutputErrors(
            name=test.output_names[s],
            mean_error=float(np.mean(errors[:, s])),
            std_error=float(np.std(errors[:, s], ddof=std_ddof)),
            rms_error=float(np.sqrt(np.mean(errors[:, s] ** 2))),
            max_abs_error=float(np.max(np.abs(errors[:, s]))),
            n_test=test.n_samples,
        )
        for s in range(test.n_outputs)
    )
    return ValidationReport(
        outputs=stats,
        actual=actual,
        predicted=predicted,
        one_step_ahead=one_step_ahead,
        std_ddof=std_ddof,
        max_pole_radius=max_pole_radius(model),
    )


def format_validation_report(report: ValidationReport) -> str:
    """Plain-text summary; reports both error std and RMS error.

    A model with a pole on or outside the unit circle gets a last line
    ``warning: identified model is unstable (max pole radius <r>)``.
    """
    mode = "one-step-ahead" if report.one_step_ahead else "free-run"
    lines = [f"validation ({mode}, {report.outputs[0].n_test} samples)"]
    lines.append(
        f"{'output':>10} {'mean_err':>12} {'std_err':>12} {'rms_err':>12} {'max_abs':>12}"
    )
    for o in report.outputs:
        lines.append(
            f"{o.name:>10} {o.mean_error:>12.5g} {o.std_error:>12.5g} "
            f"{o.rms_error:>12.5g} {o.max_abs_error:>12.5g}"
        )
    radius = report.max_pole_radius
    if radius >= 1.0:
        lines.append(f"warning: identified model is unstable (max pole radius {radius:.6g})")
    return "\n".join(lines) + "\n"


def format_trace(report: ValidationReport, output: int, start: int = 0,
                 stop: int | None = None) -> str:
    """Column-aligned per-sample trace: index, actual, predicted, error.

    Rows ``start`` .. ``stop`` - 1 only (by default all), with the header
    line when ``start`` is 0, so the blocks of a long trace can be written
    one after another and join to the whole trace."""
    actual, predicted = report.actual[start:stop, output], report.predicted[start:stop, output]
    head = f"index actual predicted error  ({report.outputs[output].name})\n" if start == 0 else ""
    cells = zip(range(start, start + len(actual)), actual.tolist(), predicted.tolist(),
                (actual - predicted).tolist())
    return head + ("%d %r %r %r\n" * len(actual)) % tuple(chain.from_iterable(cells))
