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

from .model import (
    Dataset,
    HammersteinChannel,
    LinearDynamics,
    MimoHammersteinModel,
    StaticNonlinearity,
)

ALPHA_SQ_BRACKET = (1e5, 1e10)
DEFAULT_ALPHA_SQ = 1e6
# Rows per rank-B update in run_rls.  On the fixed-rls benchmark regressions
# (5e4 rows of 37 and 41 columns, 2-core OpenBLAS) 32 to 48 rows took the same
# time, about 0.2 s per output; 32 keeps the (B + d)-square QR below about 96,
# where a two-thread OpenBLAS geqrf ran 2-5x slower than one thread.
_BLOCK_ROWS = 32


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
    """Description of one regressor column."""

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
    """Regressor matrix H, target vector y, and the meaning of each column."""

    H: np.ndarray
    y: np.ndarray
    column_map: tuple[Column, ...]

    @property
    def n_rows(self) -> int:
        return self.H.shape[0]

    @property
    def n_columns(self) -> int:
        return self.H.shape[1]


def build_regressor(
    data: Dataset,
    orders: StructureOrders,
    output: int,
    start: int | None = None,
) -> RegressionProblem:
    """Assemble the regression for one output of a deviation-scale dataset.

    Column order: lagged outputs -y(k-1)..-y(k-n), then for each input j and
    each power i = 1..p_sj the lagged powered inputs u_j^i(k-d)..u_j^i(k-d-m).
    Rows run from ``start`` (default: the largest lag any column needs) to
    the end of the data; powers are taken of the stored deviation values.
    """
    if len(orders.channels) != data.n_inputs:
        raise ValueError(
            f"orders describe {len(orders.channels)} inputs, dataset has {data.n_inputs}"
        )
    if not 0 <= output < data.n_outputs:
        raise ValueError(f"output index {output} out of range")
    k0 = orders.max_lag if start is None else start
    if k0 < orders.max_lag:
        raise ValueError(f"start {k0} is below the largest needed lag {orders.max_lag}")
    N = data.n_samples
    if N <= k0:
        raise ValueError(
            f"series of length {N} too short for orders needing lag {k0}"
        )
    y = data.outputs[:, output]
    cols: list[np.ndarray] = []
    cmap: list[Column] = []
    for i in range(1, orders.n + 1):
        cols.append(-y[k0 - i:N - i])
        cmap.append(Column("output_lag", lag=i))
    for j, ch in enumerate(orders.channels):
        u = data.inputs[:, j]
        for power in range(1, ch.p + 1):
            up = u**power
            for l in range(ch.m + 1):
                lag = ch.d + l
                cols.append(up[k0 - lag:N - lag])
                cmap.append(Column("input_power", lag=lag, input=j, power=power))
    H = np.column_stack(cols) if cols else np.zeros((N - k0, 0))
    return RegressionProblem(H=H, y=y[k0:N].copy(), column_map=tuple(cmap))


# ---------------------------------------------------------------------------
# Batch least squares

@dataclass(frozen=True)
class BatchResult:
    theta: np.ndarray
    loss: float  # squared residual norm / rows
    rank: int
    condition: float


def _name_offenders(H: np.ndarray, rank: int, column_map) -> list[tuple[str, str]]:
    # pivoted QR: pivots beyond the numerical rank are the dependent columns
    _, _, piv = scipy.linalg.qr(H, mode="economic", pivoting=True)
    kept, rejected = piv[:rank], piv[rank:]
    norms = np.linalg.norm(H, axis=0)
    norms[norms == 0] = 1.0
    Hn = H / norms
    offenders = []
    for c in rejected:
        corr = np.abs(Hn[:, kept].T @ Hn[:, c])
        partner = kept[int(np.argmax(corr))] if len(kept) else c
        offenders.append((column_map[c].label(), column_map[partner].label()))
    return offenders


def batch_ls(prob: RegressionProblem, rcond: float = 1e-10) -> BatchResult:
    """Solve min ||y - H theta|| by orthogonal factorization.

    Raises :class:`RankDeficiencyError` when the numerical rank (at the
    given relative cutoff) is below the column count.
    """
    H, y = prob.H, prob.y
    if H.shape[1] == 0:
        raise ValueError("regression has no columns")
    theta, _, rank, sv = np.linalg.lstsq(H, y, rcond=rcond)
    if rank < H.shape[1]:
        raise RankDeficiencyError(rank, H.shape[1], _name_offenders(H, rank, prob.column_map))
    resid = y - H @ theta
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    return BatchResult(theta=theta, loss=float(resid @ resid) / len(y), rank=int(rank), condition=cond)


# ---------------------------------------------------------------------------
# Recursive least squares

@dataclass
class EstimatorState:
    """Running estimate theta and covariance-like matrix P."""

    theta: np.ndarray
    P: np.ndarray
    samples_seen: int = 0

    @property
    def dim(self) -> int:
        return len(self.theta)

    def covariance_is_positive_definite(self) -> bool:
        """Check P > 0 by attempting a symmetric (Cholesky) factorization."""
        try:
            np.linalg.cholesky(self.P)
        except np.linalg.LinAlgError:
            return False
        return True


def init_estimator(dim: int, alpha_sq: float = DEFAULT_ALPHA_SQ) -> EstimatorState:
    """Start from theta = 0 and P = alpha_sq * I.

    alpha_sq is expected in [1e5, 1e10]; values outside are accepted with a
    warning since they merely weaken or harden the zero prior.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if alpha_sq <= 0:
        raise ValueError(f"alpha_sq must be positive, got {alpha_sq}")
    lo, hi = ALPHA_SQ_BRACKET
    if not lo <= alpha_sq <= hi:
        warnings.warn(
            f"alpha_sq={alpha_sq:g} outside the recommended bracket [{lo:g}, {hi:g}]",
            stacklevel=2,
        )
    return EstimatorState(theta=np.zeros(dim), P=alpha_sq * np.eye(dim))


def rls_update(state: EstimatorState, phi, y_k: float) -> EstimatorState:
    """One rank-one update of the running least-squares estimate.

    theta' = theta + P phi (1 + phi' P phi)^-1 (y - phi' theta)
    P'     = P - P phi (1 + phi' P phi)^-1 phi' P

    P is re-symmetrized after the update to keep round-off from drifting it.
    :func:`run_rls` applies the same recursion to many rows at once.
    """
    phi = np.asarray(phi, dtype=float).ravel()
    if phi.shape != state.theta.shape:
        raise ValueError(f"regressor dim {phi.shape} != state dim {state.theta.shape}")
    if not (np.all(np.isfinite(phi)) and np.isfinite(y_k)):
        raise ValueError("non-finite regressor or target")
    Pphi = state.P @ phi
    denom = 1.0 + float(phi @ Pphi)
    gain = Pphi / denom
    theta = state.theta + gain * (y_k - float(phi @ state.theta))
    P = state.P - np.outer(gain, Pphi)
    P = 0.5 * (P + P.T)
    return EstimatorState(theta=theta, P=P, samples_seen=state.samples_seen + 1)


def _block_update(theta: np.ndarray, U: np.ndarray, Phi: np.ndarray, y: np.ndarray):
    """Rank-B update of theta and of the upper factor U of P = U'U by B rows Phi.

    One QR of the (B+d)-square pre-array

        [ I       0 ]         [ X'  Y' ]
        [ U Phi'  U ]  =  Q   [ 0   U+ ]

    gives X X' = S = I + Phi P Phi' and Y X' = P Phi', so the gain is
    K = P Phi' S^-1 = Y X^-1, theta+ = theta + K (y - Phi theta), and
    U+'U+ = P - K Phi P.  This is B rank-one updates in one step, in
    square-root (array) form: P itself is never updated, so round-off cannot
    make it indefinite.
    """
    B, d = Phi.shape
    M = np.zeros((B + d, B + d), order="F")
    M[:B, :B] = np.eye(B)
    M[B:, :B] = U @ Phi.T
    M[B:, B:] = U
    # R is the upper triangle of the factored array; geqrf leaves the
    # reflectors below it, so only R's upper blocks are read as they are.
    R = scipy.linalg.lapack.dgeqrf(M, overwrite_a=True)[0]
    w = scipy.linalg.solve_triangular(R[:B, :B], y - Phi @ theta, trans="T", check_finite=False)
    return theta + w @ R[:B, B:], np.triu(R[B:, B:])


def run_rls(prob: RegressionProblem, alpha_sq: float = DEFAULT_ALPHA_SQ) -> EstimatorState:
    """Feed every row of a regression problem through the recursion.

    Rows go in blocks of ``_BLOCK_ROWS``, each one exact rank-B update of
    theta and a square-root factor of P (:func:`_block_update`); in exact
    arithmetic the state equals that of one :func:`rls_update` per row.
    """
    H, y = prob.H, prob.y
    finite = np.isfinite(H).all(axis=1) & np.isfinite(y)
    if not finite.all():
        raise ValueError(f"non-finite regressor or target in row {int(np.argmin(finite))}")
    theta = init_estimator(prob.n_columns, alpha_sq).theta  # checks dim and alpha_sq
    U = np.sqrt(alpha_sq) * np.eye(prob.n_columns)
    for k in range(0, prob.n_rows, _BLOCK_ROWS):
        theta, U = _block_update(theta, U, H[k:k + _BLOCK_ROWS], y[k:k + _BLOCK_ROWS])
    # numpy computes U'U by a symmetric rank-k product, so P is exactly symmetric
    return EstimatorState(theta=theta, P=U.T @ U, samples_seen=prob.n_rows)


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

    The per-channel products form a p x (m+1) matrix M with M[i-1, l] =
    r_i b_l; its best rank-one factorization (by singular decomposition),
    scaled so r_1 = 1, gives the nonlinearity and numerator coefficients.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (orders.n_parameters,):
        raise ValueError(
            f"theta has {theta.shape[0]} entries, orders imply {orders.n_parameters}"
        )
    a = theta[: orders.n].copy()
    channels = []
    offset = orders.n
    for ch in orders.channels:
        block = theta[offset:offset + ch.p * (ch.m + 1)]
        offset += ch.p * (ch.m + 1)
        M = block.reshape(ch.p, ch.m + 1)
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
