"""Structure identification: delays, nonlinearity degree, dynamic orders.

Delays come from a residual-loss scan: the numerator block of one input is
slid to later and later starting lags, and the delay is the largest start
that costs nothing — exactly the number of leading zero numerator taps the
data supports.  Degree p and the orders (n, m) are then chosen by sweeps.
Every sweep is scored in full, and each selection is read off its whole
vector of losses J = ||y - H theta||^2 / rows.  The scan, n and m take the
smallest model whose J lies within a relative tolerance of the sweep's
smallest J or at the data's numerical noise floor.  p takes the first
degree at the floor or that the next degree no longer improves noticeably.

Every candidate of the scan, and every candidate of the search, for every
output, regresses one output over the same row window on a subset of one
fixed bank of lagged-output and lagged-input-power columns, and so does
the fit of the orders the search selects, batch (:func:`fit_orders`) or by
RLS.  A bank is the union of the columns of a list of regressions, each an
output at some orders: the scan's and the search's largest for every
output (:func:`fold_bank`), or the fixed orders of each output
(:func:`fold_orders`).  It is compressed to its R factor (QR data
compression) once per identify: it is built a block of rows at a time and
each block is folded into R, so the whole bank is never held, and no
training row is read again.  Each block comes from the one builder of
regression columns, :func:`~hammid.estimate.lagged_columns`, which also
writes the whole [H y] of :func:`~hammid.estimate.build_regressor`, and a
candidate's columns are found by the one numbering of both,
:func:`~hammid.estimate.signal_lags`.  Each rule on bad input is checked
once, where its object is built: :class:`SearchBounds` checks every search
setting, and the bank refuses a constant series before it folds.  The
candidates of one sweep are nested: the scan's candidate at d spans the one
at d + 1 plus input j's lag-d columns, and the p, n and m sweeps each add
one group of columns per step.  So each sweep re-orders R's columns, new
columns of each candidate after the previous candidate's and the output's
own column last, and re-factors; every candidate's loss is then a tail sum
of squares of the last column of that factor.  The bank lays out first the
input powers that every scan candidate holds, so a scan sweep starts with
R's own leading columns, and only the block behind them is re-factored.  On
exact data a column may lie in the span of the columns before it; the first
such column is dropped and only the block behind it re-triangularized, one
column at a time, which changes no candidate's span and so no loss.
:func:`augment_columns` is the paper's partitioned update of a solution
when columns are appended: it inverts only the Schur complement of the new
columns and gives the same solution as a direct solve.

numpy and scipy may each ship their own OpenBLAS, each with its own thread
pool, and two pools that spin on the same cores slow each other down.  So
the delay scan, the order search and the bank's fit factor with
``scipy.linalg`` and take long sums as plain numpy reductions: they make no
numpy BLAS or LAPACK call large enough to thread, neither ``@`` nor
``np.dot`` on a long vector, and neither does
:func:`~hammid.estimate.batch_ls`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np
import scipy.linalg

from .estimate import (BatchResult, ChannelOrders, Column, RegressionProblem, StructureOrders,
                       check_rank, fold_rows, lagged_columns, regression_columns, signal_lags,
                       solve_folded)
from .model import Dataset

DEFAULT_PLATEAU_THRESHOLD = 0.02
DEFAULT_CONVERGENCE_FLOOR = 3e-6
_EXACT_FIT_FLOOR = 1e-12  # relative to output power: treat as a perfect fit
_DELAY_JUMP_TOL = 0.2
_DELAY_N_FIT = 8  # output lags of the delay-scan regression
_DELAY_P_FIT = 4  # input powers of the delay-scan regression
_DELAY_PAD = 8  # numerator lags past max_lag in every input's block


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


def _deflated(R: np.ndarray, order: list[int], target: int, tol: float):
    """The columns of ``order`` that are kept, and the last column of R',
    the R factor of R's kept columns in that order with column ``target``
    last.

    The first t columns of ``order`` that are R's own first t columns,
    0 .. t - 1, are already triangular and zero below row t: R' keeps R's
    first t rows, and only the trailing block R[t:, rest + [target]] is
    factored.  A column whose diagonal entry in R' is at most ``tol`` lies
    in the span of the columns before it.  The first such column, at
    position i, is dropped; the columns behind it are then upper Hessenberg
    from row i, and only that block R'[i:, i + 1:] is re-triangularized,
    until no column is flagged.  Only the first flagged column may be
    dropped at a time: unpivoted QR leaves a round-off row behind a
    dependent column, the diagonal entries after it no longer reveal rank,
    and independent columns would be flagged too.
    """
    order = list(order)
    t = next((i for i, c in enumerate(order) if i != c), len(order))
    F = R[:, order + [target]]
    F[t:, t:] = scipy.linalg.qr(F[t:, t:], mode="r", check_finite=False)[0]
    while True:
        dependent = np.flatnonzero(np.abs(np.diag(F))[:len(order)] <= tol)
        if not dependent.size:
            return order, F[:, -1]
        i = dependent[0]
        del order[i]
        F = np.delete(F, i, axis=1)
        F[i:, i:] = scipy.linalg.qr(F[i:, i:], mode="r", check_finite=False)[0]


def _nested_losses(R: np.ndarray, n_rows: int, column_sets, target: int,
                   sq_norms: np.ndarray) -> np.ndarray:
    """Loss J of the regression of column ``target`` on every column set of a
    nested sequence.

    ``R`` is the R factor of a bank over ``n_rows`` rows; each set in
    ``column_sets`` holds column indices of the bank other than ``target``
    and contains the set before it.  R's columns are re-ordered so that each
    set's new columns follow the previous set's, with r_target last, and
    re-triangularized into R' (:func:`_deflated`).  For the k columns of a
    set, the leading k x k block of R' is then the R factor of that
    regression, and its residual is the tail R'[k:, -1].

    That holds while the block has full rank.  A column whose diagonal
    entry in R' is at most eps * rows * ||R_S||_F (R_S: R's columns in the
    sets, whose squared norms ``sq_norms`` holds for every column of R)
    lies in the span of the columns before it, and so in every later set's
    span: it is dropped, which changes no set's span, and every set size
    that counted it goes down by one.
    """
    order: list[int] = []
    sizes = []
    for cols in column_sets:
        cols = set(cols)
        if not cols.issuperset(order):
            raise ValueError("column sets are not nested")
        order += sorted(cols.difference(order))
        sizes.append(len(order))
    tol = np.finfo(float).eps * n_rows * np.sqrt(np.sum(sq_norms[order]))
    kept, b = _deflated(R, order, target, tol)
    kept = set(kept)
    counted = list(accumulate((c in kept for c in order), initial=0))
    return np.array([float(b[counted[k]:] @ b[counted[k]:]) / n_rows for k in sizes])


class _CompressedBank:
    """R factor of one bank of lagged columns, the union of the columns of
    ``regressions``, a list of (orders, output): it solves each of them, and
    any regression on a subset of its columns.

    The bank is block-Hankel: the signals of
    :func:`~hammid.estimate.lagged_columns` at ``p`` powers of every input,
    ``p`` the largest power of any of the regressions (u_j^i for every
    input j and power i <= ``p``, then -y_s for every output s), over the
    rows from sample ``max_lag``, the regressions' largest lag, on.  It
    holds a signal at a lag exactly when one of the regressions reads it
    there (:func:`~hammid.estimate.signal_lags`).  The input powers it holds
    at lags ``lead_lag`` .. ``max_lag``, which every delay-scan candidate
    holds when ``lead_lag`` is the scan's ``max_lag``, come first; every
    other column follows, lag-major.  So each scan sweep starts with R's
    own leading columns, which :func:`_nested_losses` leaves as they are.
    Output s's regressions take its -y_s column at lag 0 as target and a
    subset of the other columns as regressors; ||z_t - Z_S theta|| equals
    ||r_t - R_S theta||, so each is solved on R alone.  A dataset without
    input series, which has no regression to search, orders of another
    input count than the dataset's, a constant input series and a constant
    output series that one of the regressions targets are refused by name
    before any row is folded: the one constant-series rule of the delay
    scan, the search and every fit.

    A series of N samples is too short for a bank of K columns from row L
    unless N - L >= K: the one length rule of the delay scan, the search
    and every fit.  ``power``, the mean square of each output over the
    bank's rows, scales both stages' loss floors.

    Z is never whole: each block of rows is one ``lagged_columns`` call,
    and :func:`~hammid.estimate.fold_rows` folds it into R from zero, so one
    block and R are all the bank memory alive.  ``table[g, lag]`` is the
    column of signal g at ``lag`` in :func:`~hammid.estimate.signal_lags`'
    numbering (u_j^i is signal j p + i - 1 and -y_s signal ``y0`` + s), -1
    where the bank holds none; :meth:`columns`, :meth:`factor` and the
    target of :meth:`losses` go through it.  ``sq_norms`` holds the squared
    norm of each column of R, which scales every sweep's rank tolerance.
    """

    def __init__(self, data: Dataset, regressions, lead_lag: int | None = None):
        if not data.n_inputs:
            raise ValueError("dataset has no input series")
        for orders, _ in regressions:
            if len(orders.channels) != data.n_inputs:
                raise ValueError(f"orders describe {len(orders.channels)} inputs, "
                                 f"dataset has {data.n_inputs}")
        series = [("input", name, u) for name, u in zip(data.input_names, data.inputs.T)]
        series += [("output", data.output_names[s], data.outputs[:, s])
                   for s in sorted({s for _, s in regressions})]
        for kind, name, x in series:
            if np.ptp(x) == 0:
                raise ValueError(f"constant {kind} series {name!r}")
        L = max(orders.max_lag for orders, _ in regressions)
        self.p = max(c.p for orders, _ in regressions for c in orders.channels)
        self.y0 = data.n_inputs * self.p
        self.n_signals = self.y0 + data.n_outputs
        held = np.zeros((self.n_signals, L + 1), dtype=bool)
        for orders, output in regressions:
            for g, lags in signal_lags(orders, [self.p] * data.n_inputs, output):
                held[g, lags.start:lags.stop] = True
        g, lag = np.nonzero(held)
        later = (g >= self.y0) | (lag < (L + 1 if lead_lag is None else lead_lag))
        order = np.lexsort((g, lag, later))
        keys = list(zip(g[order], lag[order]))
        k, N = len(keys), data.n_samples
        if N - L < k:
            raise ValueError(f"series of length {N} too short for {k} bank columns from row {L}")
        self.table = np.full(held.shape, -1)
        self.table[g[order], lag[order]] = np.arange(k)
        self.max_lag, self.n_rows = L, N - L
        self.power = np.array([np.mean(y[L:] ** 2) for y in data.outputs.T])
        self.R = fold_rows(np.zeros((k, k), order="F"), self.n_rows, lambda s, e: lagged_columns(
            data, [self.p] * data.n_inputs, [(g, [lag]) for g, lag in keys], L, s, e))
        self.sq_norms = np.sum(self.R * self.R, axis=0)

    def _indices(self, orders: StructureOrders, output: int) -> np.ndarray:
        """Bank columns of output ``output``'s [H y] at ``orders``, in theta's
        order with the target last; a ValueError if the bank does not hold
        them all."""
        if (orders.max_lag > self.max_lag or any(c.p > self.p for c in orders.channels)
                or len(orders.channels) * self.p != self.y0):
            raise ValueError(f"bank of lags up to {self.max_lag} and powers up to {self.p} "
                             f"does not cover {orders}")
        if not 0 <= output < self.n_signals - self.y0:
            raise ValueError(f"output index {output} out of range")
        cols = np.concatenate([self.table[g, lags.start:lags.stop] for g, lags in
                               signal_lags(orders, [self.p] * len(orders.channels), output)])
        if (cols < 0).any():
            raise ValueError(f"bank does not hold every column of output {output} at {orders}")
        return cols

    def columns(self, orders: StructureOrders, output: int) -> list[int]:
        """Indices of the bank columns that output ``output``'s regression at
        ``orders`` uses, ascending; a ValueError if the bank does not hold
        them all."""
        return np.sort(self._indices(orders, output)[:-1]).tolist()

    def losses(self, sweep, output: int) -> np.ndarray:
        """J of output ``output`` at each candidate in ``sweep``, a sequence
        of orders each of which spans the bank columns of the one before it."""
        return _nested_losses(self.R, self.n_rows,
                              [self.columns(orders, output) for orders in sweep],
                              int(self.table[self.y0 + output, 0]), self.sq_norms)

    def factor(self, orders: StructureOrders, output: int) -> np.ndarray:
        """[R z; 0 rho], the R factor of output ``output``'s [H y] at
        ``orders`` over the bank's rows, H's columns in theta's order.

        R's columns of the regression and the target are taken in that
        order and re-factored; the target column is negated first, since
        the bank holds -y."""
        cols = self._indices(orders, output)
        A = self.R[:, cols]
        A[:, -1] *= -1.0
        return scipy.linalg.qr(A, mode="r", check_finite=False)[0][:len(cols)]


def _first_within(losses: np.ndarray, tol: float, floor: float) -> int:
    """Index of the first loss, smallest model first, that is at most
    (1 + ``tol``) times the smallest loss or at most ``floor``."""
    return int(np.argmax(losses <= max((1.0 + tol) * losses.min(), floor)))


def _first_plateau(losses: np.ndarray, threshold: float, floor: float) -> int:
    """Index of the first loss that is at most ``floor`` or that the next
    loss improves on by less than ``threshold`` (relative); else the last."""
    J, J_next = losses[:-1], losses[1:]
    with np.errstate(divide="ignore", invalid="ignore"):  # J = 0 is at the floor
        stop = (J <= floor) | ((J - J_next) / J < threshold)
    return int(np.argmax(np.append(stop, True)))


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


def _cross_correlation_peak(u: np.ndarray, y: np.ndarray, max_lag: int) -> float:
    u0 = u - u.mean()
    y0 = y - y.mean()
    denom = float(np.sqrt(np.sum(u0 * u0) * np.sum(y0 * y0)))
    peak = 0.0
    for lag in range(max_lag + 1):
        c = float(np.sum(u0[: len(u0) - lag] * y0[lag:])) / denom
        peak = max(peak, abs(c))
    return peak


def _check_max_lag(data: Dataset, max_lag: int) -> None:
    if max_lag < 0 or max_lag >= data.n_samples // 4:
        raise ValueError(f"max_lag must lie in [0, N/4), got {max_lag}")


def fold_bank(data: Dataset, max_lag: int, bounds: SearchBounds | None = None) -> _CompressedBank:
    """Fold the bank that holds every output's delay scan up to ``max_lag``
    and, given ``bounds``, its structure search at delays up to ``max_lag``
    and the fit of the orders it selects (:func:`fit_orders`).  It is the
    bank of every output's largest scan regression, n ``_DELAY_N_FIT``, p
    ``_DELAY_P_FIT``, d 0 and m ``max_lag`` + ``_DELAY_PAD``, and given
    ``bounds``, of its largest search regression, n ``n_max``, p ``p_max``,
    d 0 and m ``max_lag`` + ``m_max``: 170 columns from row 18 at the
    defaults.  The input powers at lags ``max_lag`` on lead the bank: every
    scan candidate holds those up to power ``_DELAY_P_FIT`` and lag
    ``max_lag`` + ``_DELAY_PAD``, which at the default bounds is all of
    them.

    ``max_lag`` is checked first, so a bad value is named before the bank
    is folded.

    Given ``bounds``, the search's inputs must be identifiable: the input
    powers up to ``p_max`` at lags ``max_lag`` .. L, all among R's leading
    columns (all 72 of them at the defaults), must have full numerical rank
    (:func:`~hammid.estimate.check_rank`), or a
    :class:`~hammid.estimate.RankDeficiencyError` names the dependent ones.
    That refuses collinear inputs, and a ``p_max`` that an input's levels
    cannot carry, not capped: on the levels -1, 0 and 1, u^3 = u.  Powers
    above ``p_max``, which only the scan reads, are not checked, and neither
    is the scan-only bank: the scan deflates dependent columns."""
    _check_max_lag(data, max_lag)
    largest = [(_DELAY_N_FIT, _DELAY_P_FIT, max_lag + _DELAY_PAD)]
    if bounds is not None:
        largest.append((bounds.n_max, bounds.p_max, max_lag + bounds.m_max))
    bank = _CompressedBank(data, [(_uniform_orders(n, m, p, [0] * data.n_inputs), s)
                                  for n, p, m in largest for s in range(data.n_outputs)],
                           lead_lag=max_lag)
    if bounds is not None:
        lead = [(bank.table[j * bank.p + i - 1, lag], Column("input_power", lag, j, i))
                for lag in range(max_lag, bank.max_lag + 1)
                for j in range(data.n_inputs) for i in range(1, bounds.p_max + 1)]
        cols, labels = zip(*[(c, label) for c, label in lead if c >= 0])
        check_rank(bank.R[:max(cols) + 1, list(cols)], labels)
    return bank


def fold_orders(data: Dataset, orders_list) -> _CompressedBank:
    """Fold the bank of every output's regression at fixed orders: output s
    at ``orders_list[s]``, over the rows from the largest of their lags on
    (row 8 at the preset's true orders, 60 columns).  Its :meth:`factor
    <_CompressedBank.factor>` gives each output's fit, batch
    (:func:`fit_orders`) or by RLS.  A list of another length than
    ``data``'s outputs, orders of another input count than its inputs, and
    a series too short for the bank are refused by name before any row is
    folded."""
    if len(orders_list) != data.n_outputs:
        raise ValueError(f"fixed_orders describe {len(orders_list)} outputs, "
                         f"dataset has {data.n_outputs}")
    return _CompressedBank(data, [(orders, s) for s, orders in enumerate(orders_list)])


def estimate_delays(data: Dataset, output: int, max_lag: int, *,
                    bank: _CompressedBank | None = None) -> list[DelayEstimate]:
    """Estimate the delay of every input of ``data`` against output ``output``.

    For each input, lagged-power blocks of all inputs plus lagged outputs
    are regressed on the output while the scanned input's block starts at
    candidate lag d = 0, 1, ...; the loss stays at its minimum for every d
    up to the true delay (those leading taps are genuinely zero) and jumps
    beyond it.  The estimate is the largest candidate whose loss lies within
    ``_DELAY_JUMP_TOL`` of the scan's smallest, or at the exact-fit floor.
    ``max_lag`` must lie in [0, N/4).  The candidates are scored on
    ``bank``, by default :func:`fold_bank` of ``data`` at ``max_lag``, which
    refuses data without an input series and a constant series.
    """
    _check_max_lag(data, max_lag)
    if not 0 <= output < data.n_outputs:
        raise ValueError(f"output index {output} out of range")
    bank = bank or fold_bank(data, max_lag)
    span = max_lag + _DELAY_PAD
    full = _uniform_orders(_DELAY_N_FIT, span, _DELAY_P_FIT, [0] * data.n_inputs)
    floor = _EXACT_FIT_FLOOR * bank.power[output]
    results = []
    for j in range(data.n_inputs):
        # from d = max_lag down, each candidate adds input j's lag-d columns
        sweep = []
        for d in range(max_lag, -1, -1):
            channels = list(full.channels)
            channels[j] = replace(channels[j], d=d, m=span - d)
            sweep.append(replace(full, channels=channels))
        losses = bank.losses(sweep, output)
        peak = _cross_correlation_peak(data.inputs[:, j], data.outputs[:, output], max_lag)
        results.append(
            DelayEstimate(
                delay=max_lag - _first_within(losses, _DELAY_JUMP_TOL, floor),
                losses=losses[::-1],
                peak_correlation=peak,
                significance_bound=2.0 / np.sqrt(data.n_samples),
            )
        )
    return results


def estimate_delay(u, y, max_lag: int) -> DelayEstimate:
    """Delay of series ``u`` against ``y``, as a one-input one-output
    :class:`~hammid.model.Dataset` (which rejects unequal lengths and NaN/inf)."""
    return estimate_delays(Dataset(1.0, u, y, ("u",), ("y",)), 0, max_lag)[0]


# ---------------------------------------------------------------------------
# Order selection

@dataclass(frozen=True)
class SearchBounds:
    """Every setting of the order search: the largest n, m and p, each at
    least 1, and the plateau threshold and convergence floor of
    :func:`select_structure`, each at least 0 (NaN is refused)."""

    n_max: int
    m_max: int
    p_max: int
    plateau_threshold: float = DEFAULT_PLATEAU_THRESHOLD
    convergence_floor: float = DEFAULT_CONVERGENCE_FLOOR

    def __post_init__(self):
        if min(self.n_max, self.m_max, self.p_max) < 1:
            raise ValueError("all search bounds must be >= 1")
        for name in ("plateau_threshold", "convergence_floor"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"{name} must be >= 0, got {value}")


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
    bounds: SearchBounds


def select_structure(data: Dataset, output: int, delays, bounds: SearchBounds, *,
                     bank: _CompressedBank | None = None) -> StructureSearchResult:
    """Choose (n, m, p) for one output by order sweeps.

    All candidates regress over the bank's rows, from its largest lag on,
    so their losses are comparable; each is a column subset of the bank.
    The identify's shared bank starts at row 18 at the default bounds and
    ``max_lag``; by default the bank is that of the full orders (n_max,
    m_max, p_max) at ``delays`` alone, which starts at
    max(n_max, max(delays) + m_max).  Sweep order: degree p first (at the
    full dynamic orders), then n (at full m), then m.  Every sweep is scored to
    its bound and every candidate recorded.  p is the smallest degree whose
    successor improves J by less than the plateau threshold, or whose J is
    already below the convergence floor (relative to output power) — the
    rule for noise-free data, where J keeps shrinking by large factors all
    the way down to round-off.  n and m are the smallest orders whose J lies
    within the plateau threshold (relative) of the sweep's smallest J, or
    below the floor.  Bounds and thresholds are ``bounds``', checked when it
    was built; the candidates are scored on ``bank``, whose build refuses a
    constant input or target series.
    """
    delays = [int(d) for d in delays]
    if len(delays) != data.n_inputs:
        raise ValueError(f"need one delay per input, got {len(delays)}")
    if not 0 <= output < data.n_outputs:
        raise ValueError(f"output index {output} out of range")
    full = _uniform_orders(bounds.n_max, bounds.m_max, bounds.p_max, delays)
    bank = bank or _CompressedBank(data, [(full, output)])
    floor = bounds.convergence_floor * bank.power[output]
    candidates: list[Candidate] = []

    def swept(stage, values, rule, orders_at):
        """Score every order value; return the one ``rule`` picks from the losses."""
        sweep = [orders_at(value) for value in values]
        losses = bank.losses(sweep, output)
        candidates.extend(Candidate(stage, o, J) for o, J in zip(sweep, losses.tolist()))
        return values[rule(losses, bounds.plateau_threshold, floor)]

    p_hat = swept("p", range(1, bounds.p_max + 1), _first_plateau,
                  lambda p: _uniform_orders(bounds.n_max, bounds.m_max, p, delays))
    n_hat = swept("n", range(1, bounds.n_max + 1), _first_within,
                  lambda n: _uniform_orders(n, bounds.m_max, p_hat, delays))
    m_hat = swept("m", range(0, bounds.m_max + 1), _first_within,
                  lambda m: _uniform_orders(n_hat, m, p_hat, delays))

    return StructureSearchResult(
        candidates=tuple(candidates),
        selected=_uniform_orders(n_hat, m_hat, p_hat, delays),
        bounds=bounds,
    )


def fit_orders(orders: StructureOrders, output: int, bank: _CompressedBank) -> BatchResult:
    """Batch least squares of output ``output`` at ``orders``, solved from
    the R factor of ``bank``: searched orders from :func:`fold_bank`'s,
    fixed orders from :func:`fold_orders`'.

    The regression runs over the bank's rows, from its largest lag on: it
    is :func:`~hammid.estimate.batch_ls` of
    :func:`~hammid.estimate.build_regressor` without its first
    ``bank.max_lag - orders.max_lag`` rows, up to round-off, and raises
    the same :class:`~hammid.estimate.RankDeficiencyError`, whose columns
    are named from the same factor.  No training row is read again.
    """
    return solve_folded(bank.factor(orders, output), bank.n_rows, regression_columns(orders))


def format_search_report(result: StructureSearchResult, output_name: str = "") -> str:
    """Plain-text table of every candidate: orders, loss, relative improvement."""
    lines = []
    lines.append(f"structure search{f' for {output_name}' if output_name else ''}")
    lines.append(
        f"plateau threshold {result.bounds.plateau_threshold:g}, "
        f"convergence floor {result.bounds.convergence_floor:g} (relative)"
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
