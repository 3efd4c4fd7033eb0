"""Per-output regression, least-squares / recursive estimation, separation.

Each output y_s of the model satisfies a linear-in-parameters difference
equation once the polynomial nonlinearities are expanded:

    y_s(k) = -sum_i a_i y_s(k-i)
             + sum_j sum_{i=1..p_sj} sum_{l=0..m_sj} (r_i b_l) u_j^i(k-d_sj-l)

so a regressor matrix over lagged outputs and lagged input powers yields
the denominator directly and the nonlinearity/numerator coefficients as
products r_i * b_l.  Those products are split afterwards by a rank-one
factorization per channel.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view

from .model import (
    Dataset,
    HammersteinChannel,
    LinearDynamics,
    MimoHammersteinModel,
    StaticNonlinearity,
)

ALPHA_SQ_BRACKET = (1e5, 1e10)
DEFAULT_ALPHA_SQ = 1e6
_BATCH_RCOND = 1e-10  # singular values below this share of the largest count as zero
# Rows of [H y] folded into an R factor at a time, and dtpqrt's inner block
# size nb.  Building and folding the 19 982 x 170 structure bank of a
# 2e4-sample two-input two-output record at the default search (2-core box,
# two BLAS threads, median of 7) took, in s:
#
#   rows   nb 8   nb 16   nb 32   nb 64   tracemalloc peak
#   1024   0.078  0.097   0.143   0.213    1.7 MiB
#   2048   0.074  0.091   0.121   0.186    3.2 MiB
#   4096   0.069  0.075   0.117   0.173    6.2 MiB
#   8192   0.061  0.069   0.111   0.160   12.2 MiB
#
# against 0.128 s for the whole bank (27.2 MB) and one scipy QR.  With one
# BLAS thread every entry up to nb 32 lay within 0.058-0.088 s, and nb 16
# was no faster than nb 8 at two threads at any block size.
_FOLD_ROWS = 4096
_FOLD_NB = 8
# Rows per block of an in-memory regression's fit (batch_ls, run_rls): OpenBLAS
# threads dtpqrt's inner calls from about 1024 rows, and its idle threads then
# spin on the other core.
_FIT_FOLD_ROWS = 512


class RankDeficiencyError(ValueError):
    """Regression matrix is numerically rank deficient.

    Carries the numerical rank and, for every column beyond it, the label
    of the retained column it is most correlated with.
    """

    def __init__(self, rank: int, n_columns: int, offenders: list[tuple[str, str]]):
        self.rank = rank
        self.n_columns = n_columns
        self.offenders = offenders
        pairs = "; ".join(f"{dep} ~ {ind}" for dep, ind in offenders)
        super().__init__(
            f"regressor rank {rank} < {n_columns} columns; dependent columns: {pairs}"
        )


@dataclass(frozen=True)
class ChannelOrders:
    """Orders of one (output, input) channel: degree p, numerator order m, delay d."""

    p: int
    m: int
    d: int

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"nonlinearity degree must be >= 1, got {self.p}")
        if self.m < 0 or self.d < 0:
            raise ValueError(f"m and d must be non-negative, got m={self.m} d={self.d}")


@dataclass(frozen=True)
class StructureOrders:
    """Structure of one output row: denominator order n plus per-input channel orders."""

    n: int
    channels: tuple[ChannelOrders, ...]

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        if self.n < 0:
            raise ValueError(f"denominator order must be >= 0, got {self.n}")

    @property
    def max_lag(self) -> int:
        input_lag = max((c.d + c.m for c in self.channels), default=0)
        return max(self.n, input_lag)

    @property
    def n_parameters(self) -> int:
        return self.n + sum(c.p * (c.m + 1) for c in self.channels)


@dataclass(frozen=True)
class Column:
    """Description of one regressor column: lagged output -y(k-lag), or
    lagged input power u_input^power(k-lag) (input counted from 0).
    :func:`regression_columns` lays them out for given orders."""

    kind: str  # "output_lag" or "input_power"
    lag: int
    input: int | None = None
    power: int | None = None

    def label(self) -> str:
        if self.kind == "output_lag":
            return f"-y(k-{self.lag})"
        return f"u{self.input + 1}^{self.power}(k-{self.lag})"


@dataclass
class RegressionProblem:
    """Regressor matrix H, target vector y, and the meaning of each column.

    H is 2-D and y 1-D with H's row count, zero rows included, and
    ``column_map`` names every column or is empty, when a rank-deficient
    fit names its columns by position; any other shapes are a ValueError.
    A fit folds it ``_FIT_FOLD_ROWS`` rows at a time, each a copy of that
    slice of [H y] (:meth:`rows`).  H may be the R factor of a regression
    and y its z, as RLS from the structure bank takes them: R'R = H'H and
    R'z = H'y.
    """

    H: np.ndarray
    y: np.ndarray
    column_map: tuple[Column, ...]

    def __post_init__(self):
        H, y, labels = np.shape(self.H), np.shape(self.y), len(self.column_map)
        if len(H) != 2 or y != H[:1] or labels not in (0, H[1]):
            raise ValueError(f"H of shape {H}, y of shape {y} and {labels} column labels: need "
                             "a 2-D H, a 1-D y of H's rows and no column label or one per column")

    @property
    def n_rows(self) -> int:
        return self.H.shape[0]

    @property
    def n_columns(self) -> int:
        return self.H.shape[1]

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Rows ``start`` .. ``stop`` - 1 of [H y] as a fresh Fortran array."""
        block = np.empty((stop - start, self.n_columns + 1), order="F")
        block[:, :-1], block[:, -1] = self.H[start:stop], self.y[start:stop]
        return block


def regression_signals(orders: StructureOrders) -> list[tuple[int | None, int | None, range]]:
    """The signals of a regression at ``orders``, each with its lags, in
    theta's order: -y at lags 1..n as (None, None, range(1, n + 1)), then
    for each input j and each power i = 1..p_sj, u_j^i at lags d..d+m as
    (j, i, range(d, d + m + 1)).

    The one rule for which lagged signals a regression holds:
    :func:`regression_columns` labels the columns it gives and
    :func:`signal_lags` numbers them for :func:`lagged_columns`, which
    writes them for :func:`build_regressor` and the structure bank
    (:mod:`hammid.structure`) alike.
    """
    return [(None, None, range(1, orders.n + 1))] + [
        (j, power, range(ch.d, ch.d + ch.m + 1))
        for j, ch in enumerate(orders.channels) for power in range(1, ch.p + 1)]


def regression_columns(orders: StructureOrders) -> tuple[Column, ...]:
    """``column_map`` of a regression at ``orders``: -y(k-1)..-y(k-n), then
    u_j^i(k-d)..u_j^i(k-d-m) for each input j and power i = 1..p_sj, one
    :class:`Column` per lag of each of its :func:`regression_signals`."""
    return tuple(Column("output_lag", lag) if j is None else Column("input_power", lag, j, power)
                 for j, power, lags in regression_signals(orders) for lag in lags)


def signal_lags(orders: StructureOrders, powers, output: int) -> list[tuple[int, range]]:
    """Each signal of output ``output``'s [H y] at ``orders`` with its lags:
    its :func:`regression_signals` in theta's order, then the target as -y
    at lag 0.

    Signals are numbered as :func:`lagged_columns` lays them out for
    ``powers``: u_j^i is signal powers[0] + .. + powers[j - 1] + i - 1, and
    -y_s is signal sum(powers) + s.
    """
    return [(sum(powers) + output if j is None else sum(powers[:j]) + power - 1, lags)
            for j, power, lags in regression_signals(orders) + [(None, None, range(1))]]


def lagged_columns(data: Dataset, powers, signals, first: int, start: int,
                   stop: int) -> np.ndarray:
    """Rows ``start`` .. ``stop`` - 1 of the lagged columns of ``signals``, a
    sequence of (signal, lags), one column per lag in order, as a fresh
    Fortran array.

    The signals of ``data`` are u_j^1 .. u_j^powers[j] for each input j,
    then -y_s for each output s, and the column of signal g at lag l holds
    g at sample ``first`` + row - l, 0 <= l <= ``first``.  Only samples
    ``start`` .. ``first`` + ``stop`` - 1 are read, each power taken once.
    Every regression column is written here: whole in
    :func:`build_regressor`, and each row block of the structure bank
    (:mod:`hammid.structure`).
    """
    u, y = data.inputs[start:first + stop], data.outputs[start:first + stop]
    # signal g is row g, so its windows are contiguous and the gather's
    # transpose is the Fortran block
    Z = []
    for j, p in enumerate(powers):
        # u^i as a running product: 1 u is u and u u is u**2 bitwise, and
        # u^i is u**i bitwise wherever every product is exact, as on
        # integer-valued deviations
        power = 1.0
        for _ in range(p):
            power = power * u[:, j]
            Z.append(power)
    Z = np.array(Z + list(-y.T))
    g, lag = np.array([(sig, lag) for sig, lags in signals for lag in lags]).T
    return sliding_window_view(Z, stop - start, axis=1)[g, first - lag].T


def build_regressor(data: Dataset, orders: StructureOrders, output: int) -> RegressionProblem:
    """Assemble the whole regression of output ``output`` of a
    deviation-scale dataset at ``orders``: its lagged
    :func:`regression_signals`, named by :func:`regression_columns`, over
    the rows from the orders' largest lag, ``orders.max_lag``, to the end of
    the data, written by one :func:`lagged_columns` call over the
    :func:`signal_lags` of ``orders`` with the target's sign flipped.
    Powers are taken of the stored deviation values.

    [H y] is one Fortran-ordered array with y last, of which ``H`` and
    ``y`` are views.  LAPACK reads Fortran order, so a QR of [H y] takes
    that array as it is.  Fits never need it whole: the delay scan, the
    structure search and every fit of ``identify``, batch or RLS, at
    searched or fixed orders, solve on the R factor of one bank whose row
    blocks the same builder writes (:mod:`hammid.structure`), so the
    package itself never calls this builder: it serves callers that want
    H and y at hand.
    """
    if len(orders.channels) != data.n_inputs:
        raise ValueError(
            f"orders describe {len(orders.channels)} inputs, dataset has {data.n_inputs}")
    if not 0 <= output < data.n_outputs:
        raise ValueError(f"output index {output} out of range")
    if data.n_samples <= orders.max_lag:
        raise ValueError(f"series of length {data.n_samples} too short for orders "
                         f"needing lag {orders.max_lag}")
    powers = [c.p for c in orders.channels]
    Hy = lagged_columns(data, powers, signal_lags(orders, powers, output), orders.max_lag, 0,
                        data.n_samples - orders.max_lag)
    Hy[:, -1] *= -1.0
    return RegressionProblem(H=Hy[:, :-1], y=Hy[:, -1], column_map=regression_columns(orders))


# ---------------------------------------------------------------------------
# Least squares by one row fold: batch, recursive, and the structure bank

def fold_rows(F: np.ndarray, n_rows: int, rows, block_rows: int | None = None) -> np.ndarray:
    """Fold rows 0 .. ``n_rows`` - 1 of [H y] into F, the upper-triangular
    Fortran R factor [R z; 0 rho] of the rows before them (zero, or a prior).

    ``rows(s, e)`` gives rows s .. e - 1 as a Fortran array that the fold
    may overwrite; it is asked for ``block_rows`` (default ``_FOLD_ROWS``)
    at a time.  LAPACK's triangular-pentagonal QR ``dtpqrt`` folds each
    block into F whole (sequential TSQR; Demmel, Grigori, Hoemmen & Langou,
    SIAM J. Sci. Comput. 34(1), 2012), so one block and F are all that is
    alive.  A row holding NaN or inf is rejected by number before its block
    is folded.
    """
    nb = min(_FOLD_NB, F.shape[0])
    block_rows = block_rows or _FOLD_ROWS
    for s in range(0, n_rows, block_rows):
        block = rows(s, min(s + block_rows, n_rows))
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            raise ValueError(f"non-finite regressor or target in row {s + int(np.argmin(finite))}")
        F = scipy.linalg.lapack.dtpqrt(0, nb, F, block, overwrite_a=1, overwrite_b=1)[0]
        del block  # else it stays alive while the next block is built
    return F


def _fold_problem(state: EstimatorState, prob: RegressionProblem) -> np.ndarray:
    """[R z; 0 rho]: ``state``'s factor with every row of ``prob`` folded in.

    Bierman's square-root information filter (Factorization Methods for
    Discrete Sequential Estimation, 1977): R+'R+ = R'R + H'H and
    R+'z+ = R'z + H'y, and P is never formed.  The rows are folded
    ``_FIT_FOLD_ROWS`` at a time, each block a copy of that slice.
    """
    k = prob.n_columns
    F = np.zeros((k + 1, k + 1), order="F")
    F[:k, :k], F[:k, k] = state.R, state.z
    return fold_rows(F, prob.n_rows, prob.rows, _FIT_FOLD_ROWS)


def _advance(state: EstimatorState, prob: RegressionProblem) -> EstimatorState:
    """``state`` after every row of ``prob``."""
    k, F = prob.n_columns, _fold_problem(state, prob)
    return EstimatorState(F[:k, :k], F[:k, k], state.samples_seen + prob.n_rows)


@dataclass(frozen=True)
class BatchResult:
    theta: np.ndarray
    loss: float  # squared residual norm / rows
    rank: int
    condition: float


def _name_offenders(R: np.ndarray, rank: int, column_map) -> list[tuple[str, str]]:
    """(dependent, partner) labels of each column of H beyond the numerical
    ``rank``, in theta's order, from H's R factor ``R``; columns are named
    by ``column_map``, or by position when it is empty.

    H = QR with Q orthonormal, so R's columns have H's norms and residual
    norms, and a pivoted QR of R picks H's pivots: those beyond the rank
    are the dependent columns.  Each one's partner is the kept column it is
    most correlated with, read off R's normalized columns since
    Hn'Hn = Rn'Rn.  Only k x k arrays are touched, by plain reductions.
    """
    _, piv = scipy.linalg.qr(R, mode="r", pivoting=True, check_finite=False)
    kept = piv[:rank]
    norms = np.sqrt(np.sum(R * R, axis=0))
    norms[norms == 0] = 1.0
    Rn = R / norms

    def label(c):
        return column_map[c].label() if column_map else f"column {c}"

    offenders = []
    for c in np.sort(piv[rank:]):
        corr = np.abs(np.sum(Rn[:, kept] * Rn[:, [c]], axis=0))
        partner = kept[int(np.argmax(corr))] if len(kept) else c
        offenders.append((label(c), label(partner)))
    return offenders


def check_rank(R: np.ndarray, column_map) -> None:
    """Raise :class:`RankDeficiencyError` when the columns of H, whose R
    factor (or any matrix A with A'A = H'H) is ``R``, have numerical rank
    below their count, at the relative cutoff ``_BATCH_RCOND`` of
    :func:`solve_folded`, naming the dependent ones by ``column_map``."""
    sv = scipy.linalg.svdvals(R, check_finite=False)
    rank = int(np.sum(sv > _BATCH_RCOND * sv[0]))
    if rank < R.shape[1]:
        raise RankDeficiencyError(rank, R.shape[1], _name_offenders(R, rank, column_map))


def solve_folded(F: np.ndarray, n_rows: int, column_map) -> BatchResult:
    """Solve min ||y - H theta|| from the factor F = [R z; 0 rho] of [H y]
    over ``n_rows`` rows.

    theta solves R theta = z by singular value decomposition, which gives
    H's rank and condition, and the loss is rho^2 / rows.  Raises
    :class:`RankDeficiencyError` when the numerical rank (at the relative
    cutoff ``_BATCH_RCOND``) is below the column count, naming H's
    dependent columns from R by ``column_map`` (by position when empty).
    """
    k = F.shape[1] - 1
    theta, _, rank, sv = scipy.linalg.lstsq(F[:k, :k], F[:k, k], cond=_BATCH_RCOND,
                                            lapack_driver="gelsd", check_finite=False)
    if rank < k:
        raise RankDeficiencyError(rank, k, _name_offenders(F[:k, :k], rank, column_map))
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    rho = F[k, k]
    return BatchResult(theta=theta, loss=float(rho * rho) / n_rows, rank=int(rank),
                       condition=cond)


def batch_ls(prob: RegressionProblem) -> BatchResult:
    """Solve min ||y - H theta|| by orthogonal factorization.

    [H y] is folded from zero to [R z; 0 rho], a copied block of rows at a
    time, as RLS folds it into its prior, and :func:`solve_folded` solves
    that factor and names the columns of a rank-deficient fit from it by
    ``prob.column_map``, as it solves the structure bank's factor of every
    fit of ``identify`` (:func:`hammid.structure.fit_orders`): no row is
    read after the fold.  Fold and solve run on scipy's BLAS, as the structure
    search does (see :mod:`hammid.structure`), so one OpenBLAS thread pool
    serves both.
    """
    k = prob.n_columns
    if k == 0:
        raise ValueError("regression has no columns")
    F = _fold_problem(EstimatorState(np.zeros((k, k)), np.zeros(k)), prob)
    return solve_folded(F, prob.n_rows, prob.column_map)


@dataclass
class EstimatorState:
    """Upper information factor R (P^-1 = R'R) and z with R theta = z.

    theta and P are derived on demand; the recursion only updates R and z.
    """

    R: np.ndarray
    z: np.ndarray
    samples_seen: int = 0

    @property
    def theta(self) -> np.ndarray:
        return scipy.linalg.solve_triangular(self.R, self.z, check_finite=False)

    @property
    def P(self) -> np.ndarray:
        Ri = scipy.linalg.solve_triangular(self.R, np.eye(len(self.z)), check_finite=False)
        # numpy computes Ri Ri' by a symmetric rank-k product, so P is exactly symmetric
        return Ri @ Ri.T

    def covariance_is_positive_definite(self) -> bool:
        """Check P > 0 by attempting a symmetric (Cholesky) factorization."""
        try:
            np.linalg.cholesky(self.P)
        except np.linalg.LinAlgError:
            return False
        return True


def check_alpha_sq(alpha_sq: float) -> None:
    """Refuse a prior scale ``alpha_sq`` that is not > 0, NaN included."""
    if not alpha_sq > 0:
        raise ValueError(f"alpha_sq must be positive, got {alpha_sq}")


def init_estimator(dim: int, alpha_sq: float = DEFAULT_ALPHA_SQ) -> EstimatorState:
    """Start from theta = 0 and P = alpha_sq * I (R = I / sqrt(alpha_sq), z = 0).

    alpha_sq must be positive (:func:`check_alpha_sq`) and is expected in
    [1e5, 1e10]; values outside are accepted with a warning since they
    merely weaken or harden the zero prior.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    check_alpha_sq(alpha_sq)
    lo, hi = ALPHA_SQ_BRACKET
    if not lo <= alpha_sq <= hi:
        warnings.warn(
            f"alpha_sq={alpha_sq:g} outside the recommended bracket [{lo:g}, {hi:g}]",
            stacklevel=2,
        )
    return EstimatorState(R=np.eye(dim) / np.sqrt(alpha_sq), z=np.zeros(dim))


def rls_update(state: EstimatorState, phi, y_k: float) -> EstimatorState:
    """One rank-one update of the running least-squares estimate.

    theta' = theta + P phi (1 + phi' P phi)^-1 (y - phi' theta)
    P'     = P - P phi (1 + phi' P phi)^-1 phi' P

    Computed as the one-row case of :func:`run_rls`'s fold of the
    information factor R, so P stays positive definite.
    """
    phi = np.asarray(phi, dtype=float).ravel()
    if phi.shape != state.z.shape:
        raise ValueError(f"regressor dim {phi.shape} != state dim {state.z.shape}")
    return _advance(state, RegressionProblem(phi[None, :], np.array([float(y_k)]), ()))


def run_rls(prob: RegressionProblem, alpha_sq: float = DEFAULT_ALPHA_SQ) -> EstimatorState:
    """Feed every row of a regression through the recursion.

    The rows are folded into the prior R = I / sqrt(alpha_sq), z = 0 by
    :func:`fold_rows`, ``_FIT_FOLD_ROWS`` at a time, as :func:`batch_ls`
    folds them from zero; in exact arithmetic the state equals that of one
    :func:`rls_update` per row.  Folding the k rows [R z] of a regression's
    R factor in place of its rows gives the same state, since R'R = H'H
    and R'z = H'y: ``identify`` feeds each output the rows of its factor
    from the structure bank (:meth:`hammid.structure._CompressedBank.factor`),
    and ``samples_seen`` then counts those k rows.
    """
    return _advance(init_estimator(prob.n_columns, alpha_sq), prob)


# ---------------------------------------------------------------------------
# Separation of the estimated products into r and b factors

@dataclass(frozen=True)
class SeparatedChannel:
    """Factors of one channel: nonlinearity coefficients and numerator."""

    r: np.ndarray  # r_1..r_p with r_1 == 1
    b: np.ndarray  # b_0..b_m
    residual_ratio: float  # ||M - r b'|| / ||M||, rank-one fit diagnostic


@dataclass(frozen=True)
class SeparatedParameters:
    a: np.ndarray  # shared denominator a_1..a_n
    channels: tuple[SeparatedChannel, ...]


def separate_parameters(theta, orders: StructureOrders) -> SeparatedParameters:
    """Split estimated products r_i*b_l into per-channel factors.

    theta is laid out by :func:`regression_columns`: a_1..a_n, then one
    block of p (m+1) products per channel.  A channel's products form a
    p x (m+1) matrix M with M[i-1, l] = r_i b_l; its best rank-one
    factorization (by singular decomposition), scaled so r_1 = 1, gives
    the nonlinearity and numerator coefficients.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (orders.n_parameters,):
        raise ValueError(
            f"theta has {theta.shape[0]} entries, orders imply {orders.n_parameters}"
        )
    a = theta[: orders.n].copy()
    channels = []
    ends = np.cumsum([orders.n] + [ch.p * (ch.m + 1) for ch in orders.channels])
    for ch, start, stop in zip(orders.channels, ends[:-1], ends[1:]):
        M = theta[start:stop].reshape(ch.p, ch.m + 1)
        scale = np.linalg.norm(M)
        if scale == 0:
            raise ValueError("channel parameter block is zero; factors indeterminate")
        if ch.p == 1:
            channels.append(SeparatedChannel(r=np.ones(1), b=M[0].copy(), residual_ratio=0.0))
            continue
        U, S, Vt = np.linalg.svd(M, full_matrices=False)
        r_raw = U[:, 0] * S[0]
        if abs(r_raw[0]) < 1e-12 * scale:
            raise ValueError(
                "linear-term row of the product matrix is numerically zero; "
                "numerator indeterminate under the r_1 = 1 normalization"
            )
        r = r_raw / r_raw[0]
        b = Vt[0] * r_raw[0]
        resid = np.linalg.norm(M - np.outer(r, b)) / scale
        channels.append(SeparatedChannel(r=r, b=b, residual_ratio=float(resid)))
    return SeparatedParameters(a=a, channels=tuple(channels))


def assemble_model(
    per_output,
    input_names,
    output_names,
    operating_point: dict | None = None,
    metadata: dict | None = None,
) -> MimoHammersteinModel:
    """Build a model from per-output (orders, separated parameters) pairs."""
    rows = []
    for orders, sep in per_output:
        a = tuple(sep.a)
        row = tuple(
            HammersteinChannel(
                StaticNonlinearity(tuple(ch.r[1:])),
                LinearDynamics(a=a, b=tuple(ch.b), d=orders.channels[j].d),
            )
            for j, ch in enumerate(sep.channels)
        )
        rows.append(row)
    return MimoHammersteinModel(
        channels=tuple(rows),
        input_names=tuple(input_names),
        output_names=tuple(output_names),
        operating_point=dict(operating_point or {}),
        metadata=dict(metadata or {}),
    )
