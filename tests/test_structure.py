import numpy as np
import pytest

from hammid import (
    ChannelOrders,
    Dataset,
    HammersteinChannel,
    LinearDynamics,
    SearchBounds,
    StaticNonlinearity,
    StructureOrders,
    augment_columns,
    batch_ls,
    build_regressor,
    estimate_delay,
    estimate_delays,
    format_search_report,
    loss_J,
    select_structure,
    simulate_channel,
)
from hammid.estimate import RegressionProblem
from hammid.structure import _EXACT_FIT_FLOOR, AugmentationError

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


class TestDelayEstimation:
    @pytest.mark.parametrize("noise_std", [0.0, 0.01])
    def test_matches_direct_solve_per_candidate(self, noise_std):
        data = preset_oracle_dataset(n_samples=1070, noise_std=noise_std)
        for s in range(data.n_outputs):
            y = data.outputs[:, s]
            ests = estimate_delays(data.inputs, y, max_lag=10)
            delays, profiles = _reference_delay_scan(data.inputs, y, max_lag=10)
            assert [e.delay for e in ests] == delays
            power = float(np.mean(y[18:] ** 2))
            for est, losses in zip(ests, profiles):
                _assert_losses_close(est.losses, losses, power)

    def test_non_finite_rejected(self):
        rng = np.random.default_rng(41)
        u = rng.normal(size=(800, 2))
        y = u[:, 0] + 0.5 * u[:, 1]
        bad_y = y.copy()
        bad_y[500] = np.nan
        with pytest.raises(ValueError, match="non-finite value nan at sample 500"):
            estimate_delays(u, bad_y, max_lag=5)
        bad_u = u.copy()
        bad_u[7, 1] = np.inf
        with pytest.raises(ValueError, match="'input 1' has non-finite value inf"):
            estimate_delays(bad_u, y, max_lag=5)

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
            ests = estimate_delays(data.inputs, data.outputs[:, s], max_lag=10)
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
        with pytest.raises(ValueError, match="constant"):
            estimate_delay(np.ones(400), np.arange(400.0), max_lag=5)
        with pytest.raises(ValueError, match="constant"):
            estimate_delay(np.arange(400.0), np.ones(400), max_lag=5)

    def test_max_lag_bound(self):
        with pytest.raises(ValueError, match="max_lag"):
            estimate_delay(np.arange(100.0), np.arange(100.0), max_lag=30)


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

    def test_preset_degrees(self):
        data = preset_oracle_dataset(n_samples=1070)
        result_1 = select_structure(data, 0, [1, 1], SearchBounds(6, 6, 4))
        result_2 = select_structure(data, 1, [3, 3], SearchBounds(6, 6, 4))
        assert result_1.selected.channels[0].p == 2
        assert result_2.selected.channels[0].p == 4
        # every candidate's loss is the direct solve of its own regressor
        # over the search's row window, start = max(n_max, max(d) + m_max)
        for s, result, start in [(0, result_1, 7), (1, result_2, 9)]:
            direct = []
            for c in result.candidates:
                prob = build_regressor(data, c.orders, s, start=start)
                direct.append(_direct_loss(prob.H, prob.y))
            power = float(np.mean(data.outputs[start:, s] ** 2))
            _assert_losses_close([c.loss for c in result.candidates], direct, power)

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
        assert str(result.plateau_threshold) in report
