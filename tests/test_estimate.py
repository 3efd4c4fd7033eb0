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
from hammid.estimate import _BLOCK_ROWS, DEFAULT_ALPHA_SQ, RegressionProblem, assemble_model

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


# no rows, part of one block, whole blocks, and whole blocks plus one row
_ROW_COUNTS = st.one_of(
    st.just(0),
    st.integers(1, _BLOCK_ROWS - 1),
    st.integers(1, 4).map(lambda k: k * _BLOCK_ROWS),
    st.integers(1, 4).map(lambda k: k * _BLOCK_ROWS + 1),
)


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
        gram = H.T @ (y - H @ result.theta)
        bound = 1e-8 * np.linalg.norm(H) * np.linalg.norm(y)
        assert np.max(np.abs(gram)) < bound

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
        state = run_rls(RegressionProblem(H=H, y=y, column_map=()))
        exact = _regularized_ls(H, y)
        # the row-by-row fold itself strays up to about 4e-10 from the closed
        # form on these problems, so it is held to a looser bound than the
        # block recursion
        assert np.linalg.norm(state.theta - exact) <= 1e-10 * np.linalg.norm(exact)
        fold = _rls_fold(H, y).theta
        assert np.linalg.norm(state.theta - fold) <= 1e-8 * np.linalg.norm(fold)
        assert np.array_equal(state.P, state.P.T)
        assert state.covariance_is_positive_definite()
        assert state.samples_seen == rows

    @pytest.mark.parametrize("row", [0, 50, 100])
    @pytest.mark.parametrize("target, value", [
        ("H", np.nan), ("H", np.inf), ("y", np.nan), ("y", -np.inf),
    ])
    def test_run_rls_rejects_non_finite(self, row, target, value):
        rng = np.random.default_rng(16)
        H = rng.normal(size=(101, 3))
        y = rng.normal(size=101)
        if target == "H":
            H[row, 1] = value
        else:
            y[row] = value
        with pytest.raises(ValueError, match=f"non-finite regressor or target in row {row}$"):
            run_rls(RegressionProblem(H=H, y=y, column_map=()))


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

    def test_rls_exact_on_over_parameterized_noisy_regression(self):
        # orders of the kind the structure search tries, on noisy data: the
        # rank-one covariance update strays from the closed form here by about
        # 2e-3 (P loses positive definiteness); the square-root block form
        # stays within 1e-9
        data = preset_oracle_dataset(n_samples=1070, noise_std=0.01)
        orders = StructureOrders(n=6, channels=(ChannelOrders(4, 6, 1), ChannelOrders(4, 6, 1)))
        prob = build_regressor(data, orders, 0)
        state = run_rls(prob)
        assert _rel(state.theta, _regularized_ls(prob.H, prob.y)) < 1e-8
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
