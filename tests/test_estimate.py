import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hammid import (
    ChannelOrders,
    Dataset,
    HammersteinChannel,
    LinearDynamics,
    RankDeficiencyError,
    StaticNonlinearity,
    StructureOrders,
    batch_ls,
    build_regressor,
    init_estimator,
    rls_update,
    run_rls,
    separate_parameters,
    simulate_channel,
)
from hammid.estimate import (_FIT_FOLD_ROWS, DEFAULT_ALPHA_SQ, RegressionProblem, assemble_model,
                             lagged_columns)
from hammid.structure import _CompressedBank

from helpers import expected_preset_theta, preset_oracle_dataset


def _single_channel_dataset(r, b, d, a, u):
    ch = HammersteinChannel(StaticNonlinearity(tuple(r)), LinearDynamics(tuple(a), tuple(b), d))
    y = simulate_channel(ch, u)
    return Dataset(
        sample_period=1.0,
        inputs=u.reshape(-1, 1),
        outputs=y.reshape(-1, 1),
        input_names=("u",),
        output_names=("y",),
    )


def _rls_fold(H, y, alpha_sq=DEFAULT_ALPHA_SQ):
    """The recursion one row at a time: a left fold of rls_update."""
    state = init_estimator(H.shape[1], alpha_sq)
    for phi, target in zip(H, y):
        state = rls_update(state, phi, float(target))
    return state


def _regularized_ls(H, y, alpha_sq=DEFAULT_ALPHA_SQ):
    """Closed form of the recursion from theta = 0, P = alpha_sq * I:
    argmin ||y - H theta||^2 + ||theta||^2 / alpha_sq, by one orthogonal solve."""
    dim = H.shape[1]
    A = np.vstack([H, np.eye(dim) / np.sqrt(alpha_sq)])
    return np.linalg.lstsq(A, np.concatenate([y, np.zeros(dim)]), rcond=None)[0]


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


# Row counts are drawn around a small fold block, patched in, so that at
# most 129 rows cross several blocks and some blocks have fewer rows than
# the regression has columns: no rows, part of one block, whole blocks,
# and whole blocks plus one row
_SMALL_FOLD_ROWS = 32
_ROW_COUNTS = st.one_of(
    st.just(0),
    st.integers(1, _SMALL_FOLD_ROWS - 1),
    st.integers(1, 4).map(lambda k: k * _SMALL_FOLD_ROWS),
    st.integers(1, 4).map(lambda k: k * _SMALL_FOLD_ROWS + 1),
)


def _reference_columns(data, orders, output):
    """[H y] of ``output`` at ``orders``, built one column at a time and
    stacked by ``np.column_stack``, and each column's label.  u^i is the
    running product u^(i-1) u."""
    N, k0 = data.n_samples, orders.max_lag
    y = data.outputs[:, output]
    cols = [(-y[k0 - i:N - i], f"-y(k-{i})") for i in range(1, orders.n + 1)]
    for j, ch in enumerate(orders.channels):
        up = data.inputs[:, j]
        for power in range(1, ch.p + 1):
            up = up if power == 1 else up * data.inputs[:, j]
            cols += [(up[k0 - lag:N - lag], f"u{j + 1}^{power}(k-{lag})")
                     for lag in range(ch.d, ch.d + ch.m + 1)]
    H = np.column_stack([c for c, _ in cols]) if cols else np.empty((N - k0, 0))
    return H, y[k0:N].copy(), [label for _, label in cols]


def _bank_label(bank, col, output):
    """Label of bank column ``col`` through the bank's (signal, lag) table,
    u_j^i being signal j p + i - 1 and -y_s signal y0 + s."""
    (g, lag), = np.argwhere(bank.table == col).tolist()
    if g >= bank.y0:
        assert g - bank.y0 == output
        return f"-y(k-{lag})"
    return f"u{g // bank.p + 1}^{g % bank.p + 1}(k-{lag})"


@st.composite
def _regressions(draw):
    """Data of 1-3 inputs and 1-3 outputs, orders with p, m and d drawn per
    channel, and an output."""
    n_inputs, n_outputs = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    orders = StructureOrders(n=draw(st.integers(0, 4)), channels=tuple(
        ChannelOrders(p=draw(st.integers(1, 3)), m=draw(st.integers(0, 3)),
                      d=draw(st.integers(0, 3)))
        for _ in range(n_inputs)))
    # enough rows for a bank at the orders' lag and largest power
    G = n_inputs * max(c.p for c in orders.channels) + n_outputs
    rows = orders.max_lag + G * (orders.max_lag + 1) + draw(st.integers(0, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = Dataset(1.0, rng.normal(size=(rows, n_inputs)), rng.normal(size=(rows, n_outputs)),
                   tuple(f"u{j}" for j in range(n_inputs)),
                   tuple(f"y{s}" for s in range(n_outputs)))
    return data, orders, draw(st.integers(0, n_outputs - 1))


@given(_regressions())
def test_regressor_and_bank_take_the_same_columns(case):
    data, orders, output = case
    prob = build_regressor(data, orders, output)
    H, y, labels = _reference_columns(data, orders, output)
    assert prob.H.tobytes() == H.tobytes()
    assert prob.y.tobytes() == y.tobytes()
    assert [c.label() for c in prob.column_map] == labels
    # the narrowest bank that holds the regression: outputs up to lag n only
    bank = _CompressedBank(data, orders.max_lag, max(c.p for c in orders.channels), orders.n)
    assert sorted(_bank_label(bank, c, output) for c in bank.columns(orders, output)) \
        == sorted(labels)


def test_powers_are_bitwise_pow_on_integer_data():
    # inputs on grids of step 2 and 1 around integer operating points: every
    # running product is exact, so each u^i is u**i bitwise
    data = preset_oracle_dataset(n_samples=1070)
    assert np.array_equal(data.inputs, np.round(data.inputs))
    # the rows of a bank of 4 powers of both inputs and both outputs at lags
    # 0..18, from row 18
    signals = [(g, range(19)) for g in range(10)]
    block = lagged_columns(data, [4, 4], signals, 18, 0, 1052)
    Z = [data.inputs[:, j] ** i for j in range(2) for i in range(1, 5)] + list(-data.outputs.T)
    want = np.column_stack([z[18 - lag:1070 - lag] for z in Z for lag in range(19)])
    assert block.tobytes(order="F") == want.tobytes(order="F")
    # elsewhere u^i carries i - 1 roundings against pow's one
    u = np.random.default_rng(3).normal(size=(1070, 1))
    data = Dataset(1.0, u, data.outputs[:, :1], ("u",), ("y",))
    block = lagged_columns(data, [4], [(g, range(1)) for g in range(4)], 0, 0, 1070)
    want = np.column_stack([u[:, 0] ** i for i in range(1, 5)])
    np.testing.assert_allclose(block, want, rtol=4 * np.finfo(float).eps, atol=0)


class TestBuildRegressor:
    def test_smallest_output_only_window(self):
        # n=1 with N=3 and no inputs: rows are [-y(0); -y(1)], targets [y(1); y(2)]
        data = Dataset(
            sample_period=1.0,
            inputs=np.zeros((3, 0)),
            outputs=np.array([[1.0], [2.0], [3.0]]),
            input_names=(),
            output_names=("y",),
        )
        prob = build_regressor(data, StructureOrders(n=1, channels=()), 0)
        np.testing.assert_array_equal(prob.H, [[-1.0], [-2.0]])
        np.testing.assert_array_equal(prob.y, [2.0, 3.0])
        assert prob.column_map[0].label() == "-y(k-1)"

    def test_column_count_for_published_orders(self):
        # n=3 plus two inputs at p=2, m=5, d=1: 3 + 2*2*(5+1) = 27 columns
        data = preset_oracle_dataset(n_samples=200)
        orders = StructureOrders(
            n=3, channels=(ChannelOrders(2, 5, 1), ChannelOrders(2, 5, 1))
        )
        prob = build_regressor(data, orders, 0)
        assert prob.n_columns == 27
        assert prob.n_rows == 200 - orders.max_lag

    def test_noiseless_consistency_with_simulation(self):
        rng = np.random.default_rng(10)
        u = rng.uniform(-1, 1, 150)
        r, b, d, a = [0.3], [1.0, -0.4], 1, [-0.7, 0.12]
        data = _single_channel_dataset(r, b, d, a, u)
        orders = StructureOrders(n=2, channels=(ChannelOrders(p=2, m=1, d=1),))
        prob = build_regressor(data, orders, 0)
        theta_true = np.array([-0.7, 0.12, 1.0, -0.4, 0.3 * 1.0, 0.3 * -0.4])
        np.testing.assert_allclose(prob.H @ theta_true, prob.y, atol=1e-12)

    def test_bit_identical_for_identical_inputs(self):
        data = preset_oracle_dataset(n_samples=120)
        orders = StructureOrders(
            n=2, channels=(ChannelOrders(2, 2, 1), ChannelOrders(2, 2, 1))
        )
        a = build_regressor(data, orders, 1)
        b = build_regressor(data, orders, 1)
        assert a.H.tobytes() == b.H.tobytes()
        assert a.y.tobytes() == b.y.tobytes()

    def test_too_short_series(self):
        data = Dataset(
            sample_period=1.0,
            inputs=np.zeros((4, 1)),
            outputs=np.ones((4, 1)),
            input_names=("u",),
            output_names=("y",),
        )
        orders = StructureOrders(n=1, channels=(ChannelOrders(1, 2, 3),))
        with pytest.raises(ValueError, match="too short"):
            build_regressor(data, orders, 0)


class TestBatchLs:
    def test_square_invertible_exact(self):
        H = np.array([[2.0, 0.0], [1.0, 3.0]])
        theta_true = np.array([1.5, -2.0])
        prob = RegressionProblem(H=H, y=H @ theta_true, column_map=())
        result = batch_ls(prob)
        np.testing.assert_allclose(result.theta, theta_true, atol=1e-12)
        assert result.loss < 1e-24

    def test_duplicate_column_names_both(self):
        from hammid.estimate import Column

        rng = np.random.default_rng(11)
        col = rng.normal(size=40)
        H = np.column_stack([col, rng.normal(size=40), col])
        cmap = (
            Column("input_power", lag=0, input=0, power=1),
            Column("output_lag", lag=1),
            Column("input_power", lag=2, input=0, power=1),
        )
        prob = RegressionProblem(H=H, y=rng.normal(size=40), column_map=cmap)
        with pytest.raises(RankDeficiencyError) as err:
            batch_ls(prob)
        assert err.value.rank == 2
        message = str(err.value)
        assert "u1^1(k-0)" in message and "u1^1(k-2)" in message

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(12)
        H = rng.normal(size=(100, 7))
        y = rng.normal(size=100)
        prob = RegressionProblem(H=H, y=y, column_map=())
        result = batch_ls(prob)
        resid = y - H @ result.theta
        gram = H.T @ resid
        bound = 1e-8 * np.linalg.norm(H) * np.linalg.norm(y)
        assert np.max(np.abs(gram)) < bound
        # the loss is read off the fold's last diagonal entry, not a residual
        assert result.loss == pytest.approx(float(resid @ resid) / 100, rel=1e-12)

    def test_condition_estimate_reported(self):
        H = np.diag([1.0, 1e-3])
        prob = RegressionProblem(H=H, y=np.ones(2), column_map=())
        assert batch_ls(prob).condition == pytest.approx(1e3)


class TestRls:
    def test_init_state(self):
        state = init_estimator(3, alpha_sq=1e6)
        np.testing.assert_array_equal(state.theta, np.zeros(3))
        np.testing.assert_array_equal(state.P, 1e6 * np.eye(3))
        assert state.samples_seen == 0

    def test_init_warns_outside_bracket(self):
        with pytest.warns(UserWarning, match="bracket"):
            init_estimator(2, alpha_sq=1e4)

    def test_init_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            init_estimator(0)
        with pytest.raises(ValueError):
            init_estimator(2, alpha_sq=0.0)

    def test_scalar_update_hand_computed(self):
        # P0=1e6, theta0=0, phi=1, y=2 -> theta1 = 2e6 / (1 + 1e6)
        state = init_estimator(1, alpha_sq=1e6)
        state = rls_update(state, [1.0], 2.0)
        assert state.theta[0] == pytest.approx(2e6 / (1 + 1e6), rel=1e-14)
        assert state.samples_seen == 1

    def test_zero_regressor_leaves_state_unchanged(self):
        state = init_estimator(2, alpha_sq=1e6)
        state = rls_update(state, [1.0, -1.0], 1.0)
        after = rls_update(state, [0.0, 0.0], 123.0)
        np.testing.assert_array_equal(after.theta, state.theta)
        np.testing.assert_array_equal(after.P, state.P)

    @pytest.mark.parametrize("dim", [1, 5, 45])
    def test_zero_regressor_leaves_factor_bitwise_unchanged(self, dim):
        # a zero row makes every Householder reflector of the update the identity
        rng = np.random.default_rng(dim)
        H = rng.normal(size=(3 * dim, dim))
        state = run_rls(RegressionProblem(H=H, y=rng.normal(size=3 * dim), column_map=()))
        after = rls_update(state, np.zeros(dim), 123.0)
        assert after.R.tobytes() == state.R.tobytes()
        assert after.z.tobytes() == state.z.tobytes()
        assert after.samples_seen == state.samples_seen + 1

    def test_non_finite_rejected(self):
        state = init_estimator(1)
        with pytest.raises(ValueError):
            rls_update(state, [np.nan], 1.0)
        with pytest.raises(ValueError):
            rls_update(state, [1.0], np.inf)

    def test_matches_batch_at_large_prior(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            dim = int(rng.integers(2, 12))
            n = int(rng.integers(dim + 5, 200))
            H = rng.normal(size=(n, dim))
            y = H @ rng.normal(size=dim) + rng.normal(0, 0.1, n)
            prob = RegressionProblem(H=H, y=y, column_map=())
            theta_rls = run_rls(prob, alpha_sq=1e9).theta
            theta_batch = batch_ls(prob).theta
            rel = np.linalg.norm(theta_rls - theta_batch) / np.linalg.norm(theta_batch)
            assert rel < 1e-6

    def test_covariance_stays_positive_definite(self):
        rng = np.random.default_rng(14)
        state = init_estimator(1, alpha_sq=1e6)
        for _ in range(10_000):
            state = rls_update(state, [rng.normal()], rng.normal())
        assert np.all(np.linalg.eigvalsh(state.P) > 0.0)
        assert np.array_equal(state.P, state.P.T)
        assert state.covariance_is_positive_definite()
        assert state.samples_seen == 10_000

    @given(dim=st.integers(1, 45), rows=_ROW_COUNTS, seed=st.integers(0, 2**32 - 1))
    def test_run_rls_is_the_row_recursion(self, dim, rows, seed):
        rng = np.random.default_rng(seed)
        H = rng.normal(size=(rows, dim))
        y = H @ rng.normal(size=dim) + 0.1 * rng.normal(size=rows)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("hammid.estimate._FIT_FOLD_ROWS", _SMALL_FOLD_ROWS)
            state = run_rls(RegressionProblem(H=H, y=y, column_map=()))
        exact = _regularized_ls(H, y)
        assert np.linalg.norm(state.theta - exact) <= 1e-10 * np.linalg.norm(exact)
        fold = _rls_fold(H, y).theta
        assert np.linalg.norm(state.theta - fold) <= 1e-10 * np.linalg.norm(fold)
        assert np.array_equal(state.P, state.P.T)
        assert state.covariance_is_positive_definite()
        assert state.samples_seen == rows

    # both solvers share the fold's rule; run_rls's cases keep their ids
    @pytest.mark.parametrize("solver, row", [
        pytest.param(solver, row, id=f"{row}{suffix}")
        for solver, suffix in [(run_rls, ""), (batch_ls, "-batch_ls")] for row in [0, 50, 100]
    ])
    @pytest.mark.parametrize("target, value", [
        ("H", np.nan), ("H", np.inf), ("y", np.nan), ("y", -np.inf),
    ])
    def test_run_rls_rejects_non_finite(self, monkeypatch, solver, row, target, value):
        # rows 50 and 100 lie in the second and fourth fold block
        monkeypatch.setattr("hammid.estimate._FIT_FOLD_ROWS", _SMALL_FOLD_ROWS)
        rng = np.random.default_rng(16)
        H = rng.normal(size=(101, 3))
        y = rng.normal(size=101)
        if target == "H":
            H[row, 1] = value
        else:
            y[row] = value
        with pytest.raises(ValueError, match=f"non-finite regressor or target in row {row}$"):
            solver(RegressionProblem(H=H, y=y, column_map=()))

    @pytest.mark.parametrize("solver", [run_rls, batch_ls])
    @pytest.mark.parametrize("rows", [_SMALL_FOLD_ROWS - 1, _SMALL_FOLD_ROWS,
                                      _SMALL_FOLD_ROWS + 1])
    def test_solvers_leave_the_problem_unchanged(self, monkeypatch, solver, rows):
        # fewer rows than, as many as, and more than a fold block; the fold
        # overwrites its blocks, and build_regressor's H and y are views of
        # one Fortran array that a single block would be
        monkeypatch.setattr("hammid.estimate._FIT_FOLD_ROWS", _SMALL_FOLD_ROWS)
        data = preset_oracle_dataset(n_samples=rows + 2, noise_std=0.01)
        orders = StructureOrders(n=2, channels=(ChannelOrders(1, 1, 1), ChannelOrders(1, 1, 1)))
        prob = build_regressor(data, orders, 0)
        assert prob.n_rows == rows
        H, y = prob.H.copy(), prob.y.copy()
        solver(prob)
        assert prob.H.tobytes() == H.tobytes()
        assert prob.y.tobytes() == y.tobytes()


class TestSeparation:
    def test_exact_rank_one(self):
        M = np.outer([1.0, 0.5], [2.0, 1.0, 0.3])
        orders = StructureOrders(n=0, channels=(ChannelOrders(p=2, m=2, d=0),))
        sep = separate_parameters(M.ravel(), orders)
        np.testing.assert_allclose(sep.channels[0].r, [1.0, 0.5], atol=1e-12)
        np.testing.assert_allclose(sep.channels[0].b, [2.0, 1.0, 0.3], atol=1e-12)
        assert sep.channels[0].residual_ratio < 1e-12

    def test_reconstruction_is_projection(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            r = np.concatenate([[1.0], rng.normal(size=2)])
            b = rng.normal(size=4)
            orders = StructureOrders(n=0, channels=(ChannelOrders(p=3, m=3, d=0),))
            sep = separate_parameters(np.outer(r, b).ravel(), orders)
            recon = np.outer(sep.channels[0].r, sep.channels[0].b)
            rel = np.linalg.norm(recon - np.outer(r, b)) / np.linalg.norm(np.outer(r, b))
            assert rel < 1e-12

    def test_linear_channel_passthrough(self):
        orders = StructureOrders(n=1, channels=(ChannelOrders(p=1, m=1, d=0),))
        sep = separate_parameters([0.5, 2.0, -1.0], orders)
        np.testing.assert_array_equal(sep.a, [0.5])
        np.testing.assert_array_equal(sep.channels[0].r, [1.0])
        np.testing.assert_array_equal(sep.channels[0].b, [2.0, -1.0])

    def test_zero_linear_row_rejected(self):
        orders = StructureOrders(n=0, channels=(ChannelOrders(p=2, m=1, d=0),))
        with pytest.raises(ValueError, match="indeterminate"):
            separate_parameters([0.0, 0.0, 1.0, 2.0], orders)

    def test_wrong_length_rejected(self):
        orders = StructureOrders(n=1, channels=(ChannelOrders(p=1, m=0, d=0),))
        with pytest.raises(ValueError, match="entries"):
            separate_parameters([1.0, 2.0, 3.0], orders)


class TestPresetRecovery:
    """Noiseless end-to-end: regress simulated data, compare to the source."""

    ORDERS = [
        StructureOrders(n=5, channels=(ChannelOrders(2, 3, 1), ChannelOrders(4, 5, 1))),
        StructureOrders(n=5, channels=(ChannelOrders(2, 5, 3), ChannelOrders(4, 5, 3))),
    ]

    def test_products_and_separation(self):
        data = preset_oracle_dataset(n_samples=1070)
        for s in (0, 1):
            prob = build_regressor(data, self.ORDERS[s], s)
            theta = batch_ls(prob).theta
            expected = expected_preset_theta(s)
            rel = np.abs(theta - expected) / np.maximum(np.abs(expected), 1e-12)
            assert rel.max() < 1e-6
            sep = separate_parameters(theta, self.ORDERS[s])
            if s == 0:
                assert sep.channels[0].r[1] == pytest.approx(-0.01476, abs=1e-6)

    def test_rls_at_workload_scale(self):
        # the benchmark's RLS regression: noise-free data, true orders, 2e4 rows
        data = preset_oracle_dataset(n_samples=20_000)
        for s in (0, 1):
            prob = build_regressor(data, self.ORDERS[s], s)
            # at the default prior the recursion's own answer lies 1.1e-6 from
            # batch LS on output 0; at the top of the recommended bracket the
            # prior's pull is below 1e-9
            assert _rel(run_rls(prob).theta, _regularized_ls(prob.H, prob.y)) < 1e-10
            assert _rel(run_rls(prob, alpha_sq=1e10).theta, batch_ls(prob).theta) < 1e-6
            H, y = prob.H[:2000], prob.y[:2000]
            prefix = run_rls(RegressionProblem(H=H, y=y, column_map=())).theta
            assert _rel(prefix, _rls_fold(H, y).theta) < 1e-10

    @pytest.mark.parametrize("solver", [batch_ls, run_rls])
    def test_solvers_hold_one_block_beyond_the_problem(self, solver):
        data = preset_oracle_dataset(n_samples=20_000)
        prob = build_regressor(data, self.ORDERS[0], 0)
        block_bytes = _FIT_FOLD_ROWS * (prob.n_columns + 1) * 8
        # 19 994 rows: [H y] is 39 blocks
        assert 39 * _FIT_FOLD_ROWS < prob.n_rows < 40 * _FIT_FOLD_ROWS
        tracemalloc.start()
        try:
            solver(prob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one copied block of [H y] and its finiteness mask are alive at a
        # time; a copy of the whole H would be 39 blocks
        assert block_bytes <= peak <= 1.5 * block_bytes

    def test_rls_exact_on_over_parameterized_noisy_regression(self):
        # orders of the kind the structure search tries, on noisy data: a
        # covariance update on an explicit P strays from the closed form here
        # by about 2e-3 (P loses positive definiteness); the square-root form
        # stays within 1e-9, whether fed a block or a row at a time
        data = preset_oracle_dataset(n_samples=1070, noise_std=0.01)
        orders = StructureOrders(n=6, channels=(ChannelOrders(4, 6, 1), ChannelOrders(4, 6, 1)))
        prob = build_regressor(data, orders, 0)
        exact = _regularized_ls(prob.H, prob.y)
        for state in (run_rls(prob), _rls_fold(prob.H, prob.y)):
            assert _rel(state.theta, exact) < 1e-8
            assert state.covariance_is_positive_definite()

    def test_assemble_model_round_trip(self):
        data = preset_oracle_dataset(n_samples=1070)
        per_output = []
        for s in (0, 1):
            theta = batch_ls(build_regressor(data, self.ORDERS[s], s)).theta
            per_output.append((self.ORDERS[s], separate_parameters(theta, self.ORDERS[s])))
        model = assemble_model(per_output, ("I_p", "V_f"), ("W_b", "H_f"))
        assert model.channels[0][0].dynamics.d == 1
        assert model.channels[1][0].dynamics.d == 3
        assert model.channels[0][0].nonlinearity.coeffs[0] == pytest.approx(-0.01476, abs=1e-6)
        assert model.channels[0][0].dynamics.a == model.channels[0][1].dynamics.a
