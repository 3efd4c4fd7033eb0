"""Structure identification: delays, nonlinearity degree, dynamic orders.

Delays come from a residual-loss scan: the numerator block of one input is
slid to later and later starting lags, and the delay is the largest start
that costs nothing — exactly the number of leading zero numerator taps the
data supports.  Degree p and the orders (n, m) are then chosen by sweeps
that stop where the loss J = ||y - H theta||^2 / rows no longer improves
noticeably (relative plateau threshold) or has reached the data's numerical
noise floor.

Every candidate of the scan, and every candidate of the search, regresses
one output over the same row window on a subset of one fixed bank of
lagged-output and lagged-input-power columns.  The bank is built once per
output and compressed by a single QR factorization of [H y]; each
candidate's loss is then a least-squares solve on the columns of the small
R factor that belong to it (QR data compression).  :func:`augment_columns`
is the paper's partitioned update of a solution when columns are appended:
it inverts only the Schur complement of the new columns and gives the same
solution as a direct solve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .estimate import (
    ChannelOrders,
    Column,
    RegressionProblem,
    StructureOrders,
    build_regressor,
)
from .model import Dataset

DEFAULT_PLATEAU_THRESHOLD = 0.02
DEFAULT_CONVERGENCE_FLOOR = 3e-6
_EXACT_FIT_FLOOR = 1e-12  # relative to output power: treat as a perfect fit
_DELAY_JUMP_TOL = 0.2


class AugmentationError(ValueError):
    """Appended columns are (numerically) in the span of the existing ones."""


def loss_J(prob: RegressionProblem, theta) -> float:
    """Normalized residual power ||y - H theta||^2 / rows."""
    r = prob.y - prob.H @ np.asarray(theta, dtype=float)
    return float(r @ r) / prob.n_rows


def augment_columns(
    prob: RegressionProblem, theta_hat, new_cols
) -> tuple[np.ndarray, float]:
    """Least-squares solution after appending columns, via the partitioned update.

    Given the solution ``theta_hat`` of ``prob``, the augmented problem
    [H  H2] is solved by correcting theta_hat with the residual projected
    through the Schur complement S = H2'H2 - H2'H (H'H)^-1 H'H2, so only the
    small S is inverted.  Returns (theta_full, J_new); theta_full stacks the
    corrected old coefficients and the new-column coefficients.
    """
    H, y = prob.H, prob.y
    H2 = np.asarray(new_cols, dtype=float)
    if H2.ndim == 1:
        H2 = H2.reshape(-1, 1)
    if H2.shape[0] != H.shape[0]:
        raise ValueError(f"new columns have {H2.shape[0]} rows, expected {H.shape[0]}")
    theta_hat = np.asarray(theta_hat, dtype=float)
    Q, R = np.linalg.qr(H)
    r_diag = np.abs(np.diag(R))
    if r_diag.size and r_diag.min() <= 1e-12 * max(r_diag.max(), 1e-300):
        raise AugmentationError("base regressor is numerically rank deficient")
    G = Q.T @ H2
    gram2 = H2.T @ H2
    S = gram2 - G.T @ G
    S = 0.5 * (S + S.T)
    sv = np.linalg.svd(S, compute_uv=False)
    # singular relative to the appended columns' own scale, so that appending
    # a column already in the span (S ~ round-off) is caught
    scale2 = np.linalg.norm(gram2)
    if sv[-1] <= 1e-10 * max(scale2, 1e-300):
        raise AugmentationError(
            "Schur complement of the appended columns is numerically singular"
        )
    resid0 = y - H @ theta_hat
    theta2 = np.linalg.solve(S, H2.T @ resid0)
    theta1 = theta_hat - scipy.linalg.solve_triangular(R, G @ theta2)
    theta_full = np.concatenate([theta1, theta2])
    r = y - H @ theta1 - H2 @ theta2
    J_new = float(r @ r) / len(y)
    return theta_full, J_new


class _CompressedBank:
    """R factor of [H y] for one output's column bank, over one row window.

    For any subset S of the bank's columns, ||y - H_S theta|| equals
    ||r_y - R_S theta|| (r_y the last column of R), so every candidate
    regression inside the bank is solved on R alone.
    """

    def __init__(self, data: Dataset, orders: StructureOrders, output: int, start: int):
        prob = build_regressor(data, orders, output, start=start)
        self.column_map = prob.column_map
        self.n_rows = prob.n_rows
        Hy = np.column_stack([prob.H, prob.y])
        del prob  # at most two copies of the bank alive: Hy and the QR's own
        self.R = np.linalg.qr(Hy, mode="r")

    def loss(self, orders: StructureOrders) -> float:
        """J of the regression on the bank columns that ``orders`` spans."""
        cols = [i for i, c in enumerate(self.column_map) if _spans(orders, c)]
        A, b = self.R[:, cols], self.R[:, -1]
        # the cutoff rcond=None applies to the full rows x |S| problem
        theta, *_ = np.linalg.lstsq(A, b, rcond=np.finfo(float).eps * self.n_rows)
        r = b - A @ theta
        return float(r @ r) / self.n_rows


def _spans(orders: StructureOrders, col: Column) -> bool:
    if col.kind == "output_lag":
        return col.lag <= orders.n
    ch = orders.channels[col.input]
    return col.power <= ch.p and ch.d <= col.lag <= ch.d + ch.m


def _uniform_orders(n: int, m: int, p: int, delays) -> StructureOrders:
    return StructureOrders(
        n=n, channels=tuple(ChannelOrders(p=p, m=m, d=d) for d in delays)
    )


# ---------------------------------------------------------------------------
# Delay estimation

@dataclass(frozen=True)
class DelayEstimate:
    """Estimated delay with the loss profile behind it.

    ``low_confidence`` is set when even the best input/output correlation
    stays below the 2/sqrt(N) significance bound, i.e. the output shows no
    detectable response to this input.
    """

    delay: int
    losses: np.ndarray  # J at each candidate starting lag 0..max_lag
    peak_correlation: float
    significance_bound: float

    @property
    def low_confidence(self) -> bool:
        return self.peak_correlation < self.significance_bound

    def __int__(self) -> int:
        return self.delay


def _cross_correlation_peak(u: np.ndarray, y: np.ndarray, max_lag: int) -> float:
    u0 = u - u.mean()
    y0 = y - y.mean()
    denom = float(np.sqrt((u0 @ u0) * (y0 @ y0)))
    if denom == 0:
        raise ValueError("constant series: cross-correlation undefined")
    peak = 0.0
    for lag in range(max_lag + 1):
        c = float(u0[: len(u0) - lag] @ y0[lag:]) / denom
        peak = max(peak, abs(c))
    return peak


def estimate_delays(
    inputs,
    y,
    max_lag: int,
    n_fit: int = 8,
    p_fit: int = 4,
    pad: int = 8,
) -> list[DelayEstimate]:
    """Estimate the input-output delay of every input against one output.

    For each input, lagged-power blocks of all inputs plus lagged outputs
    are regressed on y while the scanned input's block starts at candidate
    lag d = 0, 1, ...; the loss stays at its minimum for every d up to the
    true delay (those leading taps are genuinely zero) and jumps beyond it.
    The estimate is the largest candidate before the jump.
    """
    U = np.asarray(inputs, dtype=float)
    if U.ndim == 1:
        U = U.reshape(-1, 1)
    y = np.asarray(y, dtype=float)
    if len(y) != U.shape[0]:
        raise ValueError(f"series lengths differ: {U.shape[0]} vs {len(y)}")
    data = Dataset(
        sample_period=1.0,
        inputs=U,
        outputs=y,
        input_names=tuple(f"input {j}" for j in range(U.shape[1])),
        output_names=("output",),
    )
    if max_lag < 0 or max_lag >= len(y) // 4:
        raise ValueError(f"max_lag must lie in [0, N/4), got {max_lag}")
    if np.ptp(y) == 0:
        raise ValueError("constant output series")
    span = max_lag + pad
    start = max(n_fit, span)
    full = _uniform_orders(n_fit, span, p_fit, [0] * U.shape[1])
    if len(y) - start <= full.n_parameters:
        raise ValueError(
            f"series of length {len(y)} too short for the delay scan "
            f"({full.n_parameters} regressors from row {start})"
        )
    for j in range(U.shape[1]):
        if np.ptp(U[:, j]) == 0:
            raise ValueError(f"constant input series {j}")
    floor = _EXACT_FIT_FLOOR * float(np.mean(y[start:] ** 2))
    bank = _CompressedBank(data, full, 0, start)
    results = []
    for j in range(U.shape[1]):
        losses = np.empty(max_lag + 1)
        for d in range(max_lag + 1):
            channels = list(full.channels)
            channels[j] = replace(channels[j], d=d, m=span - d)
            losses[d] = bank.loss(replace(full, channels=channels))
        bound = max(losses[0] * (1.0 + _DELAY_JUMP_TOL), floor)
        delay = 0
        for d in range(max_lag + 1):
            if losses[d] <= bound:
                delay = d
            else:
                break
        peak = _cross_correlation_peak(U[:, j], y, max_lag)
        results.append(
            DelayEstimate(
                delay=delay,
                losses=losses,
                peak_correlation=peak,
                significance_bound=2.0 / np.sqrt(len(y)),
            )
        )
    return results


def estimate_delay(u, y, max_lag: int, **kwargs) -> DelayEstimate:
    """Single-input version of :func:`estimate_delays`."""
    return estimate_delays(np.asarray(u, dtype=float).reshape(-1, 1), y, max_lag, **kwargs)[0]


# ---------------------------------------------------------------------------
# Order selection

@dataclass(frozen=True)
class SearchBounds:
    n_max: int
    m_max: int
    p_max: int

    def __post_init__(self):
        if min(self.n_max, self.m_max, self.p_max) < 1:
            raise ValueError("all search bounds must be >= 1")


@dataclass(frozen=True)
class Candidate:
    """One evaluated order combination."""

    stage: str  # "p", "n" or "m"
    orders: StructureOrders
    loss: float


@dataclass(frozen=True)
class StructureSearchResult:
    candidates: tuple[Candidate, ...]
    selected: StructureOrders
    plateau_threshold: float
    convergence_floor: float


def select_structure(
    data: Dataset,
    output: int,
    delays,
    bounds: SearchBounds,
    plateau_threshold: float = DEFAULT_PLATEAU_THRESHOLD,
    convergence_floor: float = DEFAULT_CONVERGENCE_FLOOR,
) -> StructureSearchResult:
    """Choose (n, m, p) for one output by order sweeps.

    All candidates share the row window implied by the search bounds so
    their losses are comparable; each is a column subset of the bank at the
    bounds' orders.  Sweep order: degree p first (at the full
    dynamic orders), then n (at full m), then m.  Each sweep stops at the
    smallest order whose successor improves J by less than the plateau
    threshold, or whose J is already below the convergence floor (relative
    to output power) — the stopping rule for noise-free data, where J keeps
    shrinking by large factors all the way down to round-off.
    """
    delays = [int(d) for d in delays]
    if len(delays) != data.n_inputs:
        raise ValueError(f"need one delay per input, got {len(delays)}")
    start = max(bounds.n_max, max(delays) + bounds.m_max)
    full = _uniform_orders(bounds.n_max, bounds.m_max, bounds.p_max, delays)
    if data.n_samples - start <= full.n_parameters:
        raise ValueError(
            f"dataset of length {data.n_samples} too short for bounds needing "
            f"{full.n_parameters} regressors from row {start}"
        )
    floor = convergence_floor * float(np.mean(data.outputs[start:, output] ** 2))
    bank = _CompressedBank(data, full, output, start)
    candidates: list[Candidate] = []

    def swept(stage, values, orders_at):
        """Walk the order values; return the selected one."""
        selected = prev = None
        for value in values:
            orders = orders_at(value)
            J = bank.loss(orders)
            candidates.append(Candidate(stage, orders, J))
            if prev is not None and prev > 0 and (prev - J) / prev < plateau_threshold:
                break
            selected, prev = value, J
            if J <= floor:
                break
        return selected

    p_hat = swept(
        "p",
        range(1, bounds.p_max + 1),
        lambda p: _uniform_orders(bounds.n_max, bounds.m_max, p, delays),
    )
    n_hat = swept(
        "n",
        range(1, bounds.n_max + 1),
        lambda n: _uniform_orders(n, bounds.m_max, p_hat, delays),
    )
    m_hat = swept(
        "m",
        range(0, bounds.m_max + 1),
        lambda m: _uniform_orders(n_hat, m, p_hat, delays),
    )

    return StructureSearchResult(
        candidates=tuple(candidates),
        selected=_uniform_orders(n_hat, m_hat, p_hat, delays),
        plateau_threshold=plateau_threshold,
        convergence_floor=convergence_floor,
    )


def format_search_report(result: StructureSearchResult, output_name: str = "") -> str:
    """Plain-text table of every candidate: orders, loss, relative improvement."""
    lines = []
    lines.append(f"structure search{f' for {output_name}' if output_name else ''}")
    lines.append(
        f"plateau threshold {result.plateau_threshold:g}, "
        f"convergence floor {result.convergence_floor:g} (relative)"
    )
    lines.append(f"{'stage':>5} {'n':>3} {'m':>3} {'p':>3} {'J':>14} {'improvement':>12}")
    prev_loss = None
    prev_stage = None
    for c in result.candidates:
        ch = c.orders.channels[0]
        same_stage = c.stage == prev_stage
        impr = (
            f"{(prev_loss - c.loss) / prev_loss:.4f}"
            if same_stage and prev_loss and prev_loss > 0
            else "-"
        )
        lines.append(
            f"{c.stage:>5} {c.orders.n:>3} {ch.m:>3} {ch.p:>3} {c.loss:>14.6e} {impr:>12}"
        )
        prev_loss, prev_stage = c.loss, c.stage
    sel = result.selected
    d_str = ",".join(str(ch.d) for ch in sel.channels)
    lines.append(
        f"selected: n={sel.n} m={sel.channels[0].m} p={sel.channels[0].p} (delays {d_str})"
    )
    return "\n".join(lines) + "\n"
