import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from hammid import (
    ChannelOrders,
    Dataset,
    HammersteinChannel,
    LinearDynamics,
    RankDeficiencyError,
    SearchBounds,
    StaticNonlinearity,
    StructureOrders,
    augment_columns,
    batch_ls,
    build_regressor,
    estimate_delay,
    estimate_delays,
    format_search_report,
    gtaw_pool_model,
    loss_J,
    run_rls,
    select_structure,
    simulate_channel,
    simulate_mimo,
)
from hammid.estimate import _FOLD_ROWS, RegressionProblem, fold_rows
from hammid.excitation import AmplitudeGrid, generate_excitation
from hammid.structure import (
    _DELAY_JUMP_TOL,
    _EXACT_FIT_FLOOR,
    AugmentationError,
    _CompressedBank,
    _deflated,
    _first_plateau,
    _first_within,
    _nested_losses,
    fit_orders,
    fold_bank,
    fold_orders,
)

from helpers import default_excitation, preset_oracle_dataset, recursion_oracle


def _lstsq_fit(H, y):
    theta, *_ = np.linalg.lstsq(H, y, rcond=None)
    return theta


class TestLossJ:
    def test_exact_fit_is_zero(self):
        H = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        theta = np.array([2.0, -1.0])
        prob = RegressionProblem(H=H, y=H @ theta, column_map=())
        assert loss_J(prob, theta) == 0.0

    def test_zero_theta_gives_mean_square(self):
        y = np.array([1.0, 2.0, 3.0])
        prob = RegressionProblem(H=np.zeros((3, 1)), y=y, column_map=())
        assert loss_J(prob, [0.0]) == pytest.approx(np.mean(y**2))

    def test_matches_scripted_residual(self):
        rng = np.random.default_rng(20)
        H = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        theta = rng.normal(size=4)
        expected = sum((y[i] - H[i] @ theta) ** 2 for i in range(30)) / 30
        prob = RegressionProblem(H=H, y=y, column_map=())
        assert loss_J(prob, theta) == pytest.approx(expected, rel=1e-12)


class TestAugmentColumns:
    def test_zero_column_rejected(self):
        rng = np.random.default_rng(21)
        H = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        prob = RegressionProblem(H=H, y=y, column_map=())
        theta = _lstsq_fit(H, y)
        with pytest.raises(AugmentationError):
            augment_columns(prob, theta, np.zeros((20, 1)))

    def test_duplicate_column_rejected(self):
        rng = np.random.default_rng(22)
        H = rng.normal(size=(15, 2))
        prob = RegressionProblem(H=H, y=rng.normal(size=15), column_map=())
        theta = _lstsq_fit(H, prob.y)
        with pytest.raises(AugmentationError):
            augment_columns(prob, theta, H[:, :1].copy())

    def test_small_system_matches_direct(self):
        rng = np.random.default_rng(23)
        H = rng.normal(size=(10, 2))
        y = rng.normal(size=10)
        new = rng.normal(size=(10, 1))
        prob = RegressionProblem(H=H, y=y, column_map=())
        theta_full, J_new = augment_columns(prob, _lstsq_fit(H, y), new)
        direct = _lstsq_fit(np.hstack([H, new]), y)
        np.testing.assert_allclose(theta_full, direct, atol=1e-10)

    def test_residual_direction_column(self):
        rng = np.random.default_rng(24)
        H = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        theta = _lstsq_fit(H, y)
        resid = (y - H @ theta).reshape(-1, 1)
        prob = RegressionProblem(H=H, y=y, column_map=())
        theta_full, J_new = augment_columns(prob, theta, resid)
        direct = _lstsq_fit(np.hstack([H, resid]), y)
        r_direct = y - np.hstack([H, resid]) @ direct
        assert J_new == pytest.approx(float(r_direct @ r_direct) / 25, rel=1e-8, abs=1e-14)

    def test_randomized_equivalence_and_monotonicity(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            rows = int(rng.integers(15, 60))
            base_cols = int(rng.integers(1, 8))
            add_cols = int(rng.integers(1, 5))
            H = rng.normal(size=(rows, base_cols))
            y = rng.normal(size=rows)
            new = rng.normal(size=(rows, add_cols))
            prob = RegressionProblem(H=H, y=y, column_map=())
            theta0 = _lstsq_fit(H, y)
            J0 = loss_J(prob, theta0)
            theta_full, J_new = augment_columns(prob, theta0, new)
            direct = _lstsq_fit(np.hstack([H, new]), y)
            denom = max(np.linalg.norm(direct), 1e-12)
            assert np.linalg.norm(theta_full - direct) / denom < 1e-8
            assert J_new <= J0 + 1e-10 * max(1.0, J0)


def _direct_loss(H, y):
    r = y - H @ _lstsq_fit(H, y)
    return float(r @ r) / len(y)


def _assert_losses_close(got, want, power):
    """Relative agreement wherever a loss lies above the exact-fit floor."""
    floor = _EXACT_FIT_FLOOR * power
    for a, b in zip(got, want):
        if max(a, b) > floor:
            assert a == pytest.approx(b, rel=1e-9)


def _reference_delay_scan(U, y, max_lag, n_fit=8, p_fit=4, pad=8):
    """Delays and losses of the scan with one full lstsq per candidate regressor."""
    N = len(y)
    span = max_lag + pad
    start = max(n_fit, span)
    floor = _EXACT_FIT_FLOOR * float(np.mean(y[start:] ** 2))
    delays, profiles = [], []
    for j in range(U.shape[1]):
        losses = []
        for d in range(max_lag + 1):
            cols = [-y[start - i:N - i] for i in range(1, n_fit + 1)]
            for jj in range(U.shape[1]):
                for power in range(1, p_fit + 1):
                    for lag in range(d if jj == j else 0, span + 1):
                        cols.append(U[start - lag:N - lag, jj] ** power)
            losses.append(_direct_loss(np.column_stack(cols), y[start:]))
        bound = max(losses[0] * 1.2, floor)
        delay = 0
        while delay < max_lag and losses[delay + 1] <= bound:
            delay += 1
        delays.append(delay)
        profiles.append(losses)
    return delays, profiles


@st.composite
def _nested_banks(draw):
    """A bank [H y], some with planted zero or dependent columns, and nested
    column sets."""
    n_cols = draw(st.integers(1, 40))
    rows = n_cols + draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["independent", "zero", "exact", "near"]))
    noise = draw(st.sampled_from([0.0, 1e-6, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = rng.normal(size=(rows, n_cols))
    if kind != "independent" and n_cols >= 3:
        planted = draw(st.integers(1, n_cols // 2))
        for c in rng.choice(n_cols, size=planted, replace=False):
            if kind == "zero":
                H[:, c] = 0.0
                continue
            a, b = rng.choice([i for i in range(n_cols) if i != c], size=2, replace=False)
            H[:, c] = 2.0 * H[:, a] - H[:, b]
            if kind == "near":
                scale = 1e-9 * np.linalg.norm(H[:, c]) / np.sqrt(rows)
                H[:, c] += scale * rng.normal(size=rows)
    y = H @ rng.normal(size=n_cols) + noise * rng.normal(size=rows)
    order = rng.permutation(n_cols)
    cuts = sorted(draw(st.sets(st.integers(0, n_cols), min_size=1, max_size=6)))
    return H, y, kind, [order[:k] for k in cuts], draw(st.integers(0, n_cols))


class TestNestedLosses:
    @given(_nested_banks())
    def test_every_prefix_matches_direct_solve(self, bank):
        # y sits at column ``target`` of the bank, among the columns of H
        H, y, kind, sets, target = bank
        rows = len(y)
        eps = np.finfo(float).eps
        R = np.linalg.qr(np.insert(H, target, y, axis=1), mode="r")
        got = _nested_losses(R, rows, [[c + (c >= target) for c in cols] for cols in sets],
                             target, np.sum(R * R, axis=0))
        floor = _EXACT_FIT_FLOOR * float(np.mean(y**2))
        for J, cols in zip(got, sets):
            A = H[:, cols]
            theta, *_ = np.linalg.lstsq(A, y, rcond=eps * rows)
            r = y - A @ theta
            want = float(r @ r) / rows
            if max(J, want) <= floor:
                continue
            tol = 1e-9 * max(J, want)
            if kind == "near":
                # a 1e-9 near-dependence makes the problem itself ill-conditioned:
                # two backward-stable solves differ by up to the first-order
                # residual perturbation, eps (|A| |theta| + |y|) per unit of |r|
                norm_a = np.linalg.norm(A, 2) if A.size else 0.0
                d_r = 100 * eps * (norm_a * np.linalg.norm(theta) + np.linalg.norm(y))
                tol += 2 * np.sqrt(rows * max(J, want)) * d_r / rows
            assert abs(J - want) <= tol

    def test_sets_must_be_nested(self):
        R = np.triu(np.ones((4, 4)))
        with pytest.raises(ValueError, match="not nested"):
            _nested_losses(R, 10, [[0, 1], [1, 2]], 3, np.sum(R * R, axis=0))

    @pytest.mark.parametrize("n_samples, noise_std", [
        (1070, 0.01), (1070, 0.0), (20_000, 0.01), (20_000, 0.0)])
    def test_deflates_as_a_full_refactor(self, monkeypatch, n_samples, noise_std):
        # every sweep of the scan and the search on the shared bank
        calls = []

        def recording(R, order, target, tol):
            kept, b = _deflated(R, order, target, tol)
            calls.append((R, list(order), target, tol, kept, b))
            return kept, b

        monkeypatch.setattr("hammid.structure._deflated", recording)
        data = preset_oracle_dataset(n_samples=n_samples, noise_std=noise_std)
        bank = fold_bank(data, 10, SearchBounds(6, 6, 4))
        outputs = []
        for s, delays in [(0, [1, 1]), (1, [3, 3])]:
            estimate_delays(data, s, max_lag=10, bank=bank)
            # one sweep per input, each from the bank's 72 leading columns
            assert len(calls) == len(outputs) + 2
            assert all(order[:72] == list(range(72)) for _, order, *_ in calls[-2:])
            select_structure(data, s, delays, SearchBounds(6, 6, 4), bank=bank)
            outputs += [s] * (len(calls) - len(outputs))  # and one per p, n and m
        assert len(calls) == 2 * (2 + 3)
        for s, (R, order, target, tol, kept, b) in zip(outputs, calls):
            want_kept, want_b = _refactored(R, order, target, tol)
            assert kept == want_kept
            floor = _EXACT_FIT_FLOOR * bank.power[s]
            for k in range(len(kept) + 1):
                J, want = float(b[k:] @ b[k:]), float(want_b[k:] @ want_b[k:])
                if max(J, want) / bank.n_rows > floor:
                    assert abs(J - want) <= 1e-12 * max(J, want)
        dropped = sum(len(order) - len(kept) for _, order, _, _, kept, _ in calls)
        assert (dropped > 0) == (noise_std == 0.0)

    def test_drops_a_leading_column_of_r(self):
        # column 2 = column 0 + column 1 lies among R's own leading columns
        rng = np.random.default_rng(11)
        Z = rng.normal(size=(40, 7))
        Z[:, 2] = Z[:, 0] + Z[:, 1]
        R = np.linalg.qr(Z, mode="r")
        tol = np.finfo(float).eps * 40 * np.linalg.norm(R[:, :6])
        kept, b = _deflated(R, list(range(6)), 6, tol)
        want_kept, want_b = _refactored(R, list(range(6)), 6, tol)
        assert kept == want_kept == [0, 1, 3, 4, 5]
        np.testing.assert_allclose(np.cumsum(b[::-1] ** 2), np.cumsum(want_b[::-1] ** 2),
                                   rtol=1e-12)
        J = _nested_losses(R, 40, [[0, 1, 2], [0, 1, 2, 3, 4, 5]], 6, np.sum(R * R, axis=0))
        for got, cols in zip(J, [[0, 1], [0, 1, 3, 4, 5]]):
            theta, *_ = np.linalg.lstsq(Z[:, cols], Z[:, 6], rcond=None)
            r = Z[:, 6] - Z[:, cols] @ theta
            assert got == pytest.approx(float(r @ r) / 40, rel=1e-12)


def _refactored(R, order, target, tol):
    """The kept columns of ``order`` and the last column of their R factor
    with ``target``: R[:, order + [target]] re-factored whole after each
    dropped column, the first whose diagonal entry is at most ``tol``."""
    order = list(order)
    while True:
        F = scipy.linalg.qr(R[:, order + [target]], mode="r")[0]
        diag = np.abs(np.diag(F))[:len(order)]
        dependent = np.flatnonzero(diag <= tol)
        i = dependent[0] if dependent.size else len(diag)
        if i == len(order):
            return order, F[:, -1]
        del order[i]


def _powers(u, p):
    """u^1 .. u^p as running products, one per row."""
    return np.cumprod(np.broadcast_to(u, (p, len(u))), axis=0)


def _reference_bank(data, regressions, lead_lag=None):
    """The bank of ``regressions``, a list of (orders, output), built one
    column at a time, and the (signal, lag) of each column: the signals are
    u_j^i for every input j and power i <= p, the largest power of any of
    the regressions, then -y_s for every output s, over the rows from the
    regressions' largest lag on.  A column is held when one of the
    regressions reads it, as a regressor or as its target -y_s at lag 0.
    The input powers at lags lead_lag.. come first, lag-major, and then
    every other column, lag-major; by default the whole bank is lag-major."""
    L = max(orders.max_lag for orders, _ in regressions)
    p = max(c.p for orders, _ in regressions for c in orders.channels)
    N, y0 = data.n_samples, data.n_inputs * p
    lead = L + 1 if lead_lag is None else lead_lag
    signals = ([z for j in range(data.n_inputs) for z in _powers(data.inputs[:, j], p)]
               + [-data.outputs[:, s] for s in range(data.n_outputs)])
    lag_major = [(g, lag) for lag in range(L + 1) for g in range(len(signals))
                 if any(_reference_spans(orders, s, p, (g, lag)) or (g, lag) == (y0 + s, 0)
                        for orders, s in regressions)]
    keys = ([(g, lag) for g, lag in lag_major if g < y0 and lag >= lead]
            + [(g, lag) for g, lag in lag_major if g >= y0 or lag < lead])
    return np.column_stack([signals[g][L - lag:N - lag] for g, lag in keys]), keys


def _assert_table(bank, keys):
    """``bank.table`` maps each (signal, lag) of ``keys`` to its position
    and holds -1 everywhere else."""
    want = np.full(bank.table.shape, -1)
    for c, (g, lag) in enumerate(keys):
        want[g, lag] = c
    assert np.array_equal(bank.table, want)


def _reference_spans(orders, output, p, key):
    """Whether output ``output``'s regression at ``orders`` uses the column
    of (signal, lag) ``key`` of a bank of ``p`` powers, one column at a
    time."""
    g, lag = key
    y0 = len(orders.channels) * p
    if g >= y0:
        return g - y0 == output and 1 <= lag <= orders.n
    ch = orders.channels[g // p]
    return g % p + 1 <= ch.p and ch.d <= lag <= ch.d + ch.m


def _reference_regressor(data, orders, output, start):
    """H and y built one column at a time and stacked by ``np.column_stack``."""
    N = data.n_samples
    y = data.outputs[:, output]
    cols = [-y[start - i:N - i] for i in range(1, orders.n + 1)]
    for j, ch in enumerate(orders.channels):
        for up in _powers(data.inputs[:, j], ch.p):
            cols += [up[start - lag:N - lag] for lag in range(ch.d, ch.d + ch.m + 1)]
    return np.column_stack(cols), y[start:N].copy()


def _assert_picks_the_reference_regression(bank, Z, data, orders, output):
    """``bank.columns`` and the target column hold the reference [H y] of
    ``output`` at ``orders`` bitwise (y negated), and R'R restricted to them
    is its Gram."""
    H, y = _reference_regressor(data, orders, output, bank.max_lag)
    index = {Z[:, c].tobytes(): c for c in range(Z.shape[1])}
    cols = [index[H[:, i].tobytes()] for i in range(H.shape[1])]
    assert sorted(cols) == bank.columns(orders, output)
    target = index[(-y).tobytes()]
    assert target == bank.table[bank.y0 + output, 0]
    A = np.column_stack([H, -y])
    F = bank.R[:, cols + [target]]
    norms = np.linalg.norm(A, axis=0)
    assert np.all(np.abs(F.T @ F - A.T @ A) <= 1e-13 * np.outer(norms, norms))


@st.composite
def _bank_and_orders(draw):
    """Data, a bank's regressions, a list of (orders, output), with its
    ``lead_lag``, and a sequence of orders in and around the bank."""
    n_inputs, n_outputs = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def orders(n, p, lag):
        return st.builds(StructureOrders, n=st.integers(0, n), channels=st.tuples(*(
            st.builds(ChannelOrders, p=st.integers(1, p), m=st.integers(0, lag),
                      d=st.integers(0, lag))
            for _ in range(n_inputs))))

    regressions = draw(st.lists(st.tuples(orders(4, 3, 3), st.integers(0, n_outputs - 1)),
                                min_size=1, max_size=3))
    max_lag = max(o.max_lag for o, _ in regressions)
    p = max(c.p for o, _ in regressions for c in o.channels)
    lead_lag = draw(st.one_of(st.none(), st.integers(0, max_lag + 1)))
    sweep = draw(st.lists(orders(max_lag + 1, p + 1, max_lag), min_size=1, max_size=5))
    rows = max_lag + (n_inputs * p + n_outputs) * (max_lag + 1) + draw(st.integers(0, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = Dataset(1.0, rng.normal(size=(rows, n_inputs)), rng.normal(size=(rows, n_outputs)),
                   tuple(f"u{j}" for j in range(n_inputs)),
                   tuple(f"y{s}" for s in range(n_outputs)))
    return data, regressions, lead_lag, sweep


# the regressions of fold_bank's bank at max_lag 10 and SearchBounds(6, 6, 4):
# the scan's and the search's largest, at delays 0, for every output
_DEFAULT_BANK = [(StructureOrders(n, [ChannelOrders(4, m, 0)] * 2), s)
                 for n, m in [(8, 18), (6, 16)] for s in (0, 1)]
# the scan at max_lag 10 and the searches at SearchBounds(6, 6, 4) and the
# preset's delays, with the first row of a bank of their own (18, 7 and 9)
_SCAN_BANK = (StructureOrders(8, [ChannelOrders(4, 18, 0)] * 2), 18)
_SEARCH_BANKS = [
    (StructureOrders(6, [ChannelOrders(4, 6, 1)] * 2), 7),
    (StructureOrders(6, [ChannelOrders(4, 6, 3)] * 2), 9),
]


def _tail(data, skip):
    """``data`` without its first ``skip`` samples."""
    return replace(data, inputs=data.inputs[skip:], outputs=data.outputs[skip:])


def _channels_dataset(rows, n_samples=1070, noise=0.01, seed=5):
    """Each output the sum of its row's channels (r, b, d, a), one per input,
    on independent excitation, plus Gaussian noise of ``noise`` times its RMS."""
    U = np.column_stack([generate_excitation(AmplitudeGrid(-1.0, 1.0, 0.25), n_samples,
                                             seed=seed + j) for j in range(len(rows[0]))])
    Y = np.column_stack([sum(recursion_oracle(*ch, U[:, j]) for j, ch in enumerate(row))
                         for row in rows])
    Y += noise * np.sqrt(np.mean(Y**2, axis=0)) * np.random.default_rng(seed).normal(size=Y.shape)
    return Dataset(1.0, U, Y, tuple(f"u{j}" for j in range(U.shape[1])),
                   tuple(f"y{s}" for s in range(Y.shape[1])))


_A = [-0.9, 0.2]
# dataset, max_lag, bounds and the true delays of every output: every delay
# differs across the inputs, or across the outputs, so that a mix-up of input
# or output columns in the bank shows
_SHAPES = {
    "preset-2x2": (lambda: preset_oracle_dataset(n_samples=1070, noise_std=0.01), 10,
                   SearchBounds(6, 6, 4), [[1, 1], [3, 3]]),
    "1-input-3-outputs": (lambda: _channels_dataset([
        [([0.2], [1.0, 0.5], 1, _A)],
        [([-0.3], [0.8, -0.4], 3, [-0.5])],
        [([0.1, 0.05], [0.6, 0.3, 0.1], 0, [-1.2, 0.5])],
    ]), 4, SearchBounds(4, 10, 3), [[1], [3], [0]]),
    "3-inputs-1-output": (lambda: _channels_dataset([[
        ([0.2], [1.0, 0.5], 0, _A), ([-0.3], [0.8, -0.4], 2, _A), ([0.1], [0.6, 0.3], 4, _A),
    ]]), 4, SearchBounds(4, 10, 3), [[0, 2, 4]]),
}


class TestCompressedBank:
    @given(_bank_and_orders())
    def test_columns_follow_the_per_column_rule(self, case):
        data, regressions, lead_lag, sweep = case
        bank = _CompressedBank(data, regressions, lead_lag)
        Z, keys = _reference_bank(data, regressions, lead_lag)
        _assert_table(bank, keys)
        # the bank's factor of each of its regressions is the R factor of
        # that regression's [H y] over the bank's rows, up to its rows' signs
        for orders, s in regressions:
            H, y = _reference_regressor(data, orders, s, bank.max_lag)
            F, want = bank.factor(orders, s), np.linalg.qr(np.column_stack([H, y]), mode="r")
            scale = np.linalg.norm(want, axis=0)
            F, want = np.sign(np.diag(F))[:, None] * F, np.sign(np.diag(want))[:, None] * want
            assert np.all(np.abs(F - want) <= 1e-10 * scale)
        p = bank.p
        for sub, s in regressions + [(sub, s) for sub in sweep for s in range(data.n_outputs)]:
            # a bank never drops a column the orders ask for
            if sub.max_lag > bank.max_lag or max(c.p for c in sub.channels) > p:
                with pytest.raises(ValueError, match=f"^bank of lags up to {bank.max_lag} and "
                                                     f"powers up to {p} does not cover "):
                    bank.columns(sub, s)
                continue
            needed = [(g, lag) for g in range(bank.n_signals) for lag in range(bank.max_lag + 1)
                      if _reference_spans(sub, s, p, (g, lag))] + [(bank.y0 + s, 0)]
            if not set(needed) <= set(keys):
                with pytest.raises(ValueError, match=f"^bank does not hold every column of "
                                                     f"output {s} at "):
                    bank.columns(sub, s)
                continue
            want = [c for c, key in enumerate(keys) if _reference_spans(sub, s, p, key)]
            assert bank.columns(sub, s) == want
            _assert_picks_the_reference_regression(bank, Z, data, sub, s)

    @pytest.mark.parametrize("n_samples, noise_std", [(1070, 0.01), (20_000, 0.0)])
    def test_layout_is_bitwise_the_column_stack_one(self, n_samples, noise_std):
        data = preset_oracle_dataset(n_samples=n_samples, noise_std=noise_std)
        for s, (orders, start) in [(0, _SCAN_BANK), (1, _SCAN_BANK), *enumerate(_SEARCH_BANKS)]:
            # the final regression keeps its own [H y] layout
            prob = build_regressor(data, orders, s)
            H_ref, y_ref = _reference_regressor(data, orders, s, start)
            assert prob.H.tobytes() == H_ref.tobytes()
            assert prob.y.tobytes() == y_ref.tobytes()
            assert prob.H.flags.f_contiguous
            assert prob.H.base is prob.y.base
        # one bank of 2 inputs x 4 powers at lags 0..18 and 2 outputs at
        # lags 0..8, the delay scan's n; the 72 input powers at lags 10..18,
        # which every scan candidate at max_lag 10 holds, come first
        bank = fold_bank(data, 10, SearchBounds(6, 6, 4))
        assert (bank.max_lag, bank.p, bank.R.shape) == (18, 4, (170, 170))
        Z, keys = _reference_bank(data, _DEFAULT_BANK, lead_lag=10)
        assert keys[71:73] == [(7, 18), (0, 0)]
        _assert_table(bank, keys)
        # the block fold fixes R only up to round-off and the signs of its
        # rows, but R'R is Z'Z
        R = bank.R
        assert np.array_equal(R, np.triu(R))
        norms = np.linalg.norm(Z, axis=0)
        assert np.all(np.abs(R.T @ R - Z.T @ Z) <= 1e-13 * np.outer(norms, norms))
        for s, (orders, _) in [(0, _SCAN_BANK), (1, _SCAN_BANK), *enumerate(_SEARCH_BANKS)]:
            _assert_picks_the_reference_regression(bank, Z, data, orders, s)

    def test_at_most_one_block_held(self):
        data = preset_oracle_dataset(n_samples=20_000)
        block_bytes = _FOLD_ROWS * 170 * 8
        # 19 982 rows from row 18: four full blocks and one of 3 598 rows
        assert 4 * _FOLD_ROWS < data.n_samples - 18 < 5 * _FOLD_ROWS
        tracemalloc.start()
        try:
            bank = fold_bank(data, 10, SearchBounds(6, 6, 4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert bank.R.shape == (170, 170)
        # one block of the bank is alive at a time, with the 10 signals it is
        # cut from (a 17th of it), its finiteness mask (an 8th), R (170^2
        # doubles, a 24th) and dtpqrt's small T; a peak below one block would
        # mean tracemalloc missed the block
        assert block_bytes <= peak <= 1.5 * block_bytes

    # The scan's own bank at max_lag 10 has N - 18 rows and the search's own
    # banks N - 7 and N - 9, so each case folds the banks in other blocks.
    @pytest.mark.parametrize("block_rows, n_samples", [
        (200, 1019),  # scan: 1001 rows = 5 x 200 + a last block of one row
        (200, 1018),  # scan: 1000 rows, an exact multiple of the block
        (2000, 1070),  # every bank fewer rows than one block
        (7, 1070),  # blocks of fewer rows than a bank has columns
    ])
    def test_block_fold_matches_direct_solve(self, monkeypatch, block_rows, n_samples):
        monkeypatch.setattr("hammid.estimate._FOLD_ROWS", block_rows)
        data = preset_oracle_dataset(n_samples=n_samples, noise_std=0.01)
        for s, delays, start in [(0, [1, 1], 7), (1, [3, 3], 9)]:
            y = data.outputs[:, s]
            ests = estimate_delays(data, s, max_lag=10)
            want, profiles = _reference_delay_scan(data.inputs, y, max_lag=10)
            assert [e.delay for e in ests] == want == delays
            power = float(np.mean(y[18:] ** 2))
            for est, losses in zip(ests, profiles):
                _assert_losses_close(est.losses, losses, power)
            result = select_structure(data, s, delays, SearchBounds(6, 6, 4))
            direct = [_direct_loss(*_reference_regressor(data, c.orders, s, start))
                      for c in result.candidates]
            power = float(np.mean(y[start:] ** 2))
            _assert_losses_close([c.loss for c in result.candidates], direct, power)

    @pytest.mark.parametrize("block_rows", [1, 7, 200, 4096])
    def test_rows_are_bitwise_those_of_the_whole_series(self, monkeypatch, block_rows):
        # the bank's 1052 rows from sample 18 in blocks of one row, of fewer
        # rows than the bank has columns, of 200 with a last block of 52, and
        # in one block
        monkeypatch.setattr("hammid.estimate._FOLD_ROWS", block_rows)
        blocks = []

        def recording_fold(F, n_rows, rows, *args):
            def kept(s, e):
                block = rows(s, e)
                blocks.append((s, e, block.copy(order="K")))  # the fold overwrites it
                return block
            return fold_rows(F, n_rows, kept, *args)

        monkeypatch.setattr("hammid.structure.fold_rows", recording_fold)
        data = preset_oracle_dataset(n_samples=1070, noise_std=0.01)
        bank = fold_bank(data, 10, SearchBounds(6, 6, 4))
        Z, keys = _reference_bank(data, _DEFAULT_BANK, lead_lag=10)
        assert [(s, e) for s, e, _ in blocks] == [
            (s, min(s + block_rows, len(Z))) for s in range(0, len(Z), block_rows)]
        for s, e, block in blocks:
            assert block.flags.f_contiguous
            assert block.tobytes(order="F") == Z[s:e].tobytes(order="F")
        # the scan bank's orders reach the bank's largest lag, so their [H y]
        # has the bank's rows: each column one of Z's, the target -Z's y column
        orders = _SCAN_BANK[0]
        for s in range(data.n_outputs):
            prob = build_regressor(data, orders, s)
            want = [Z[:, keys.index((bank.y0 + s if c.input is None
                                     else c.input * bank.p + c.power - 1, c.lag))]
                    for c in prob.column_map] + [-Z[:, keys.index((bank.y0 + s, 0))]]
            assert np.column_stack([prob.H, prob.y]).tobytes() == np.column_stack(want).tobytes()

    @pytest.mark.parametrize("shape", _SHAPES)
    def test_shared_bank_answers_as_banks_of_their_own(self, shape):
        make, max_lag, bounds, true_delays = _SHAPES[shape]
        data = make()
        bank = fold_bank(data, max_lag, bounds)
        for s, delays in enumerate(true_delays):
            power = float(np.mean(data.outputs[bank.max_lag:, s] ** 2))
            # a scan's own bank starts at row max_lag + 8; without the samples
            # before the shared bank's first row, it regresses the same rows
            tail = _tail(data, bank.max_lag - (max_lag + 8))
            shared = estimate_delays(data, s, max_lag, bank=bank)
            own = estimate_delays(tail, s, max_lag)
            want, profiles = _reference_delay_scan(tail.inputs, tail.outputs[:, s], max_lag)
            assert [e.delay for e in shared] == [e.delay for e in own] == want == delays
            for a, b, losses in zip(shared, own, profiles):
                _assert_losses_close(a.losses, b.losses, power)
                _assert_losses_close(a.losses, losses, power)
            # a search's own bank starts at row max(n_max, max(d) + m_max)
            tail = _tail(data, bank.max_lag - max(bounds.n_max, max(delays) + bounds.m_max))
            shared = select_structure(data, s, delays, bounds, bank=bank)
            own = select_structure(tail, s, delays, bounds)
            assert shared.selected == own.selected
            assert [c.orders for c in shared.candidates] == [c.orders for c in own.candidates]
            _assert_losses_close([c.loss for c in shared.candidates],
                                 [c.loss for c in own.candidates], power)

    def test_bank_that_misses_a_lag_or_power_is_refused(self):
        data = preset_oracle_dataset(n_samples=1070)
        with pytest.raises(ValueError, match="^bank of lags up to 13 and powers up to 4 "
                                             "does not cover "):
            estimate_delays(data, 0, 10, bank=fold_bank(data, 5))
        for bounds in (SearchBounds(6, 6, 5), SearchBounds(6, 20, 4)):
            with pytest.raises(ValueError, match="^bank of lags up to 18 and powers up to 4 "
                                                 "does not cover "):
                select_structure(data, 0, [1, 1], bounds, bank=fold_bank(data, 10))

    def test_bank_of_another_input_count_is_refused(self):
        # 2 inputs x 4 powers: orders of one or three inputs would read
        # another input's columns
        data = preset_oracle_dataset(n_samples=1070)
        bank = fold_bank(data, 10)
        for k in (1, 3):
            orders = StructureOrders(2, [ChannelOrders(2, 2, 1)] * k)
            with pytest.raises(ValueError, match="^bank of lags up to 18 and powers up to 4 "
                                                 "does not cover "):
                bank.columns(orders, 0)

    def test_dataset_without_inputs_is_named(self):
        full = preset_oracle_dataset(n_samples=1070)
        data = Dataset(1.0, np.zeros((1070, 0)), full.outputs, (), full.output_names)
        for call in (lambda: select_structure(data, 0, [], SearchBounds(6, 6, 4)),
                     lambda: fold_bank(data, 10).columns(StructureOrders(2, []), 0),
                     lambda: estimate_delays(data, 0, 10)):
            with pytest.raises(ValueError, match="^dataset has no input series$"):
                call()

    def test_needs_more_rows_than_regressors(self):
        # 2 inputs x 4 powers at lags 0..18 and 2 outputs at lags 0..8: 170
        # columns from row 18
        bounds = SearchBounds(6, 6, 4)
        data = preset_oracle_dataset(n_samples=18 + 170)
        assert fold_bank(data, 10, bounds).n_rows == 170
        short = preset_oracle_dataset(n_samples=18 + 169)
        with pytest.raises(ValueError, match="^series of length 187 too short for 170 bank "
                                             "columns from row 18$"):
            fold_bank(short, 10, bounds)

    def test_power_is_the_mean_square_of_y(self):
        data = preset_oracle_dataset(n_samples=1070, noise_std=0.01)
        bank = fold_bank(data, 10, SearchBounds(6, 6, 4))
        assert bank.power.tolist() == [float(np.mean(data.outputs[18:, s] ** 2))
                                       for s in range(data.n_outputs)]


class TestFitOrders:
    @pytest.mark.parametrize("n_samples", [1070, 5000])  # 5000: two row blocks
    def test_matches_batch_ls_over_the_bank_rows(self, n_samples):
        data = preset_oracle_dataset(n_samples=n_samples, noise_std=0.01)
        bounds = SearchBounds(6, 6, 4)
        bank = fold_bank(data, 10, bounds)
        # the preset's true orders, whose channels differ in p and m, so that
        # theta's order is not the bank's
        true = [StructureOrders(5, [ChannelOrders(2, 3, 1), ChannelOrders(4, 5, 1)]),
                StructureOrders(5, [ChannelOrders(2, 5, 3), ChannelOrders(4, 5, 3)])]
        for s, delays in enumerate([[1, 1], [3, 3]]):
            selected = select_structure(data, s, delays, bounds, bank=bank).selected
            for orders in (selected, true[s]):
                fit = fit_orders(orders, s, bank)
                prob = build_regressor(data, orders, s)
                skip = bank.max_lag - orders.max_lag
                want = batch_ls(RegressionProblem(prob.H[skip:], prob.y[skip:], prob.column_map))
                assert fit.rank == want.rank == orders.n_parameters
                assert np.linalg.norm(fit.theta - want.theta) <= \
                    1e-10 * np.linalg.norm(want.theta)
                assert fit.condition == pytest.approx(want.condition, rel=1e-10)
                assert fit.loss == pytest.approx(want.loss, rel=1e-10)

    @pytest.mark.parametrize("n_max, width", [(6, 170), (10, 174)])
    def test_every_bank_column_is_read(self, monkeypatch, n_max, width):
        # inputs at lags 0..18 for the scan, outputs at lags 0..max(8, n_max)
        read = set()
        indices = _CompressedBank._indices

        def recording(bank, orders, output):
            cols = indices(bank, orders, output)
            read.update(cols)
            return cols

        monkeypatch.setattr(_CompressedBank, "_indices", recording)
        data = preset_oracle_dataset(n_samples=1070, noise_std=0.01)
        bounds = SearchBounds(n_max, 6, 4)
        bank = fold_bank(data, 10, bounds)
        assert bank.R.shape == (width, width)
        for s in range(data.n_outputs):
            delays = [e.delay for e in estimate_delays(data, s, 10, bank=bank)]
            fit_orders(select_structure(data, s, delays, bounds, bank=bank).selected, s, bank)
        assert read == set(range(width))

    def test_orders_past_the_output_lags_are_refused(self):
        data = preset_oracle_dataset(n_samples=1070)
        bank = fold_bank(data, 10)  # the scan's own bank: outputs at lags 0..8
        assert (bank.table[bank.y0:, :9] >= 0).all() and (bank.table[bank.y0:, 9:] < 0).all()
        assert len(bank.columns(StructureOrders(8, [ChannelOrders(2, 2, 1)] * 2), 0)) == 20
        orders = StructureOrders(9, [ChannelOrders(2, 2, 1)] * 2)
        for call in (lambda: bank.columns(orders, 0),
                     lambda: fit_orders(orders, 0, bank),
                     lambda: select_structure(data, 0, [1, 1], SearchBounds(9, 6, 4),
                                              bank=bank)):
            with pytest.raises(ValueError, match="^bank does not hold every column of output 0 "
                                                 "at "):
                call()


class TestDelayEstimation:
    @pytest.mark.parametrize("noise_std", [0.0, 0.01])
    def test_matches_direct_solve_per_candidate(self, noise_std):
        data = preset_oracle_dataset(n_samples=1070, noise_std=noise_std)
        for s in range(data.n_outputs):
            y = data.outputs[:, s]
            ests = estimate_delays(data, s, max_lag=10)
            delays, profiles = _reference_delay_scan(data.inputs, y, max_lag=10)
            assert [e.delay for e in ests] == delays
            power = float(np.mean(y[18:] ** 2))
            for est, losses in zip(ests, profiles):
                _assert_losses_close(est.losses, losses, power)

    @pytest.mark.parametrize("noise_std", [0.0, 0.01])
    def test_scan_and_search_run_no_per_candidate_solve(self, monkeypatch, noise_std):
        # every loss, exact fits included, is a tail sum of the re-ordered
        # factor, so lstsq never runs
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
        data = preset_oracle_dataset(n_samples=1070, noise_std=noise_std)
        for s, delays in [(0, [1, 1]), (1, [3, 3])]:
            ests = estimate_delays(data, s, max_lag=10)
            assert [e.delay for e in ests] == delays
            select_structure(data, s, delays, SearchBounds(6, 6, 4))
        assert calls == []

    def test_non_finite_rejected(self):
        rng = np.random.default_rng(41)
        u = rng.normal(size=800)
        y = u + 0.5 * u**2
        bad_y = y.copy()
        bad_y[500] = np.nan
        with pytest.raises(ValueError, match="'y' has non-finite value nan at sample 500"):
            estimate_delay(u, bad_y, max_lag=5)
        bad_u = u.copy()
        bad_u[7] = np.inf
        with pytest.raises(ValueError, match="'u' has non-finite value inf at sample 7"):
            estimate_delay(bad_u, y, max_lag=5)

    def test_pure_delay(self):
        rng = np.random.default_rng(26)
        u = rng.normal(size=400)
        y = np.concatenate([np.zeros(3), u[:-3]])
        est = estimate_delay(u, y, max_lag=8)
        assert est.delay == 3
        assert not est.low_confidence

    def test_preset_channel_delays(self):
        # structural delays of the published channels: 1 (output 1) and 3 (output 2)
        u1, _ = default_excitation(1000)
        from helpers import ORACLE_CHANNELS

        r, b, d, a = ORACLE_CHANNELS[0][0]
        y11 = recursion_oracle(r, b, d, a, u1)
        assert estimate_delay(u1, y11, max_lag=10).delay == 1
        r, b, d, a = ORACLE_CHANNELS[1][0]
        y21 = recursion_oracle(r, b, d, a, u1)
        assert estimate_delay(u1, y21, max_lag=10).delay == 3

    def test_mimo_delays_on_preset_outputs(self):
        data = preset_oracle_dataset(n_samples=1070)
        for s, want in [(0, [1, 1]), (1, [3, 3])]:
            ests = estimate_delays(data, s, max_lag=10)
            assert [e.delay for e in ests] == want

    def test_unrelated_series_low_confidence(self):
        rng = np.random.default_rng(40)
        u = rng.normal(size=600)
        y = rng.normal(size=600)
        est = estimate_delay(u, y, max_lag=6)
        assert est.low_confidence
        assert est.significance_bound == pytest.approx(2 / np.sqrt(600))

    def test_shift_equivariance(self):
        rng = np.random.default_rng(28)
        u = rng.normal(size=500)
        ch = HammersteinChannel(
            StaticNonlinearity((0.2,)), LinearDynamics((-0.5, 0.06), (1.0, 0.4), 1)
        )
        y = simulate_channel(ch, u)
        base = estimate_delay(u, y, max_lag=8).delay
        for k in (1, 3):
            shifted = np.concatenate([np.zeros(k), y[:-k]])
            assert estimate_delay(u, shifted, max_lag=8).delay == base + k

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="^constant input series 'u'$"):
            estimate_delay(np.ones(400), np.arange(400.0), max_lag=5)
        with pytest.raises(ValueError, match="^constant output series 'y'$"):
            estimate_delay(np.arange(400.0), np.ones(400), max_lag=5)

    def test_constant_series_refused_by_every_bank(self):
        # the scan's, the search's and fixed orders' own banks refuse a
        # constant input before they fold: no input power of it is
        # identifiable, yet a search would still select orders
        data = preset_oracle_dataset(n_samples=1070)
        data.inputs[:, 1] = 0.0
        fixed = [StructureOrders(2, [ChannelOrders(1, 1, 0)] * 2)] * 2
        for call in (lambda: estimate_delays(data, 0, max_lag=10),
                     lambda: select_structure(data, 0, [1, 1], SearchBounds(6, 6, 4)),
                     lambda: fold_orders(data, fixed)):
            with pytest.raises(ValueError, match="^constant input series 'V_f'$"):
                call()
        # an output is refused only where a regression targets it
        data = preset_oracle_dataset(n_samples=1070)
        data.outputs[:, 1] = 0.0
        assert select_structure(data, 0, [1, 1], SearchBounds(6, 6, 4)).selected.n == 5
        for call in (lambda: estimate_delays(data, 0, max_lag=10),
                     lambda: select_structure(data, 1, [3, 3], SearchBounds(6, 6, 4))):
            with pytest.raises(ValueError, match="^constant output series 'H_f'$"):
                call()

    @pytest.mark.parametrize("output", [2, -1])
    def test_output_index_checked_before_the_constant_checks(self, output):
        data = preset_oracle_dataset(n_samples=200)
        with pytest.raises(ValueError, match=f"^output index {output} out of range$"):
            estimate_delays(data, output, max_lag=5)

    def test_max_lag_bound(self):
        with pytest.raises(ValueError, match="max_lag"):
            estimate_delay(np.arange(100.0), np.arange(100.0), max_lag=30)

    def test_scan_and_search_share_one_too_short_rule(self):
        data = preset_oracle_dataset(n_samples=60)
        # the scan's own bank at max_lag 10: 2 inputs x 4 powers at lags 0..18
        # and 2 outputs at lags 0..8
        with pytest.raises(ValueError, match="^series of length 60 too short for 170 bank "
                                             "columns from row 18$"):
            estimate_delays(data, 0, max_lag=10)
        # the search's own bank at SearchBounds(6, 6, 4) and delays 1, 1:
        # inputs at lags 1..7 and the searched output at lags 0..6
        with pytest.raises(ValueError, match="^series of length 60 too short for 63 bank "
                                             "columns from row 7$"):
            select_structure(data, 0, [1, 1], SearchBounds(6, 6, 4))


@pytest.mark.parametrize("noise_std", [0.0, 0.01])
def test_scan_search_and_batch_ls_call_no_numpy_linalg(monkeypatch, noise_std):
    # numpy's and scipy's OpenBLAS each keep their own thread pool, so the
    # identify path (scan, search, batch LS or RLS) factors and solves on
    # scipy's alone
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg or numpy BLAS called")

    # 4 982 scan rows: two blocks
    data = preset_oracle_dataset(n_samples=5000, noise_std=noise_std)
    for name in ("qr", "lstsq", "norm"):
        monkeypatch.setattr(np.linalg, name, refuse)
    # these reach numpy's BLAS too
    for name in ("dot", "vdot", "inner", "correlate"):
        monkeypatch.setattr(np, name, refuse)
    for s, delays in [(0, [1, 1]), (1, [3, 3])]:
        assert [e.delay for e in estimate_delays(data, s, max_lag=10)] == delays
        result = select_structure(data, s, delays, SearchBounds(6, 6, 4))
        prob = build_regressor(data, result.selected, s)
        batch = batch_ls(prob)
        assert batch.rank == result.selected.n_parameters
        # at the top of the prior bracket RLS lies within 1e-6 of batch LS
        theta = run_rls(prob, alpha_sq=1e10).theta
        assert np.sqrt(np.sum((theta - batch.theta) ** 2)) <= \
            1e-6 * np.sqrt(np.sum(batch.theta ** 2))
        # a rank-deficient fit names its columns from its R factor alone
        twin = RegressionProblem(np.column_stack([prob.H, 2.0 * prob.H[:, -1]]), prob.y,
                                 prob.column_map + prob.column_map[-1:])
        with pytest.raises(RankDeficiencyError, match=r"dependent columns: u2\^"):
            batch_ls(twin)
    # V_f half of I_p: the search's bank refuses the inputs from its leading
    # columns, and the scan's bank fit of the preset's orders is rank deficient
    U = np.column_stack([data.inputs[:, 0], 0.5 * data.inputs[:, 0]])
    collinear = replace(data, inputs=U, outputs=simulate_mimo(gtaw_pool_model(), U))
    with pytest.raises(RankDeficiencyError, match=r"dependent columns: u2\^1\(k-10\) ~ u1\^1"):
        fold_bank(collinear, 10, SearchBounds(6, 6, 4))
    orders = StructureOrders(5, [ChannelOrders(2, 5, 1)] * 2)
    with pytest.raises(RankDeficiencyError, match=r"dependent columns: u2\^1\(k-1\) ~ u1\^1"):
        fit_orders(orders, 0, fold_bank(collinear, 10))


@pytest.mark.parametrize("noise_std", [0.0, 0.01])
def test_scan_factors_only_what_its_sweeps_add(monkeypatch, noise_std):
    # the default bank's first 72 columns, both inputs' four powers at lags
    # 10..18, are in every scan candidate at max_lag 10 and are never factored
    # again; on exact data each dropped column re-triangularizes only the
    # block behind it
    shapes = []
    qr = scipy.linalg.qr

    def recording(a, *args, **kwargs):
        shapes.append(a.shape)
        return qr(a, *args, **kwargs)

    data = preset_oracle_dataset(n_samples=1070, noise_std=noise_std)
    bank = fold_bank(data, 10, SearchBounds(6, 6, 4))
    assert bank.R.shape == (170, 170)
    monkeypatch.setattr("hammid.structure.scipy.linalg.qr", recording)
    for s in range(data.n_outputs):
        estimate_delays(data, s, max_lag=10, bank=bank)
    assert max(rows for rows, _ in shapes) <= 170 - 72
    if noise_std:
        assert len(shapes) == 4  # one per output and input
    else:
        assert len(shapes) > 4


def _reference_walk(losses, threshold, floor):
    """The order sweep as an early-stopping walk: index of the selected value."""
    selected = prev = None
    for i, J in enumerate(losses):
        if prev is not None and prev > 0 and (prev - J) / prev < threshold:
            break
        selected, prev = i, J
        if J <= floor:
            break
    return selected


def _reference_delay_loop(losses, tol, floor):
    """The delay scan's contiguous bound loop over losses at d = 0, 1, ..."""
    bound = max(losses[0] * (1.0 + tol), floor)
    delay = 0
    for d in range(len(losses)):
        if losses[d] <= bound:
            delay = d
        else:
            break
    return delay


@st.composite
def _sweep_losses(draw):
    """A non-increasing loss vector, smallest model first, as nested sweeps
    give, with a threshold and a floor.  Steps are exactly flat, at the
    threshold (or one ulp either side), down to zero, or by a random ratio;
    the floor is zero, one of the losses, or arbitrary."""
    threshold = draw(st.sampled_from([0.0, 0.02, _DELAY_JUMP_TOL, 0.5]))
    losses = [draw(st.sampled_from([0.0, 1.0])) * draw(st.floats(1e-30, 1e3))]
    for _ in range(draw(st.integers(0, 9))):
        prev = losses[-1]
        step = draw(st.sampled_from(["flat", "threshold", "zero", "ratio"]))
        if step == "flat":
            nxt = prev
        elif step == "threshold":
            nxt = prev - threshold * prev
            nxt = np.nextafter(nxt, draw(st.sampled_from([nxt, 0.0, np.inf])))
        elif step == "zero":
            nxt = 0.0
        else:
            nxt = prev * draw(st.floats(0.0, 1.0))
        losses.append(min(float(nxt), prev))
    floor = draw(st.one_of(st.just(0.0), st.sampled_from(losses), st.floats(0.0, 1e3)))
    return np.array(losses), threshold, floor


class TestSelectionRules:
    @given(_sweep_losses())
    def test_plateau_rule_is_the_walk(self, case):
        losses, threshold, floor = case
        assert _first_plateau(losses, threshold, floor) == _reference_walk(
            losses.tolist(), threshold, floor)

    @given(_sweep_losses())
    def test_within_rule_is_the_delay_loop(self, case):
        # the scan's sweep runs from d = max_lag down to 0
        losses, tol, floor = case
        max_lag = len(losses) - 1
        assert max_lag - _first_within(losses, tol, floor) == _reference_delay_loop(
            losses[::-1].tolist(), tol, floor)


class TestSelectStructure:
    def _synthetic(self, r, b, d, a, n_samples=1000, seed=99, e=None):
        from hammid.excitation import AmplitudeGrid, generate_excitation

        u = generate_excitation(AmplitudeGrid(-1.0, 1.0, 0.25), n_samples, seed=seed)
        y = recursion_oracle(r, b, d, a, u, e)
        return Dataset(
            sample_period=1.0,
            inputs=u.reshape(-1, 1),
            outputs=np.asarray(y).reshape(-1, 1),
            input_names=("u",),
            output_names=("y",),
        )

    def test_noiseless_known_model_exact_orders(self):
        # resonant second-order plant, quadratic nonlinearity, delay 1
        data = self._synthetic([0.25], [1.0, 0.5], 1, [-1.5, 0.7])
        d_hat = estimate_delay(data.inputs[:, 0], data.outputs[:, 0], max_lag=6).delay
        assert d_hat == 1
        result = select_structure(data, 0, [d_hat], SearchBounds(5, 5, 4))
        sel = result.selected
        assert (sel.n, sel.channels[0].m, sel.channels[0].p) == (2, 1, 2)

    def test_linear_data_selects_degree_one(self):
        data = self._synthetic([], [1.0, -0.3], 0, [-0.6])
        result = select_structure(data, 0, [0], SearchBounds(4, 4, 3))
        assert result.selected.channels[0].p == 1

    @pytest.mark.parametrize("noise_std", [0.0, 0.01])
    def test_preset_degrees(self, noise_std):
        data = preset_oracle_dataset(n_samples=1070, noise_std=noise_std)
        result_1 = select_structure(data, 0, [1, 1], SearchBounds(6, 6, 4))
        result_2 = select_structure(data, 1, [3, 3], SearchBounds(6, 6, 4))
        assert result_1.selected.channels[0].p == 2
        assert result_2.selected.channels[0].p == 4
        # every candidate's loss is the direct solve of its own regressor
        # over the search's row window, start = max(n_max, max(d) + m_max)
        for s, result, start in [(0, result_1, 7), (1, result_2, 9)]:
            direct = []
            for c in result.candidates:
                direct.append(_direct_loss(*_reference_regressor(data, c.orders, s, start)))
            power = float(np.mean(data.outputs[start:, s] ** 2))
            _assert_losses_close([c.loss for c in result.candidates], direct, power)

    def test_preset_orders_on_noise_free_data(self):
        # the W_b n-sweep improves by 0.2% from n = 2 to 3 and by 74% from
        # 3 to 4: the whole sweep, not its first flat step, holds the order
        data = preset_oracle_dataset(n_samples=1070)
        for s, delays, want in [(0, [1, 1], (5, 5, 2)), (1, [3, 3], (5, 5, 4))]:
            result = select_structure(data, s, delays, SearchBounds(6, 6, 4))
            sel = result.selected
            assert (sel.n, sel.channels[0].m, sel.channels[0].p) == want
            stages = [(c.stage, c.orders.n, c.orders.channels[0].m, c.orders.channels[0].p)
                      for c in result.candidates]
            n_hat, _, p_hat = want
            assert stages == ([("p", 6, 6, p) for p in range(1, 5)]
                              + [("n", n, 6, p_hat) for n in range(1, 7)]
                              + [("m", n_hat, m, p_hat) for m in range(0, 7)])

    def test_deterministic(self):
        data = self._synthetic([0.25], [1.0, 0.5], 1, [-1.5, 0.7])
        a = select_structure(data, 0, [1], SearchBounds(4, 4, 3))
        b = select_structure(data, 0, [1], SearchBounds(4, 4, 3))
        assert a.selected == b.selected
        assert [c.loss for c in a.candidates] == [c.loss for c in b.candidates]

    def test_loss_monotone_within_stages(self):
        data = self._synthetic([0.2], [1.0, 0.4], 1, [-0.9, 0.2], e=np.zeros(1000))
        result = select_structure(data, 0, [1], SearchBounds(4, 4, 3))
        by_stage: dict[str, list[float]] = {}
        for c in result.candidates:
            by_stage.setdefault(c.stage, []).append(c.loss)
        for losses in by_stage.values():
            for a, b in zip(losses, losses[1:]):
                assert b <= a + 1e-10 * max(1.0, a)

    @pytest.mark.parametrize("key", ["plateau_threshold", "convergence_floor"])
    def test_negative_threshold_rejected(self, key):
        # no loss lies below a negative floor or within a negative margin of
        # the best, and none compares with NaN: the bounds refuse both
        for value in (-0.5, float("nan")):
            with pytest.raises(ValueError, match=f"^{key} must be >= 0, got {value}$"):
                SearchBounds(4, 4, 3, **{key: value})

    def test_insufficient_data_rejected(self):
        data = self._synthetic([0.2], [1.0], 0, [-0.5], n_samples=30)
        with pytest.raises(ValueError, match="too short"):
            select_structure(data, 0, [0], SearchBounds(6, 6, 4))

    def test_report_formatting(self):
        data = self._synthetic([0.25], [1.0, 0.5], 1, [-1.5, 0.7])
        result = select_structure(data, 0, [1], SearchBounds(4, 4, 3))
        report = format_search_report(result, "y")
        assert "structure search for y" in report
        assert "selected: n=2 m=1 p=2" in report
        assert result.bounds == SearchBounds(4, 4, 3)
        assert str(result.bounds.plateau_threshold) in report
