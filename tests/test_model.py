import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.signal import lfilter

from hammid import (
    Dataset,
    HammersteinChannel,
    LinearDynamics,
    MimoHammersteinModel,
    StaticNonlinearity,
    eval_nonlinearity,
    gtaw_pool_model,
    max_pole_radius,
    preset_model,
    simulate_channel,
    simulate_linear,
    simulate_mimo,
)
from hammid.excitation import AmplitudeGrid, generate_excitation

from helpers import BAD_SIGNAL_NAMES, ORACLE_CHANNELS, oracle_mimo, recursion_oracle

bad_signal_names = pytest.mark.parametrize(
    "name, reason", BAD_SIGNAL_NAMES.values(), ids=BAD_SIGNAL_NAMES.keys()
)


class TestNonlinearity:
    def test_identity_when_degree_one(self):
        f = StaticNonlinearity()
        assert eval_nonlinearity(f, 3.7) == 3.7

    def test_no_constant_term(self):
        f = StaticNonlinearity((-0.01476,))
        assert eval_nonlinearity(f, 0.0) == 0.0

    def test_quadratic_value(self):
        # u - 0.01476 u^2 at u = 1
        f = StaticNonlinearity((-0.01476,))
        assert eval_nonlinearity(f, 1.0) == pytest.approx(0.98524, abs=1e-12)

    def test_array_input(self):
        f = StaticNonlinearity((0.5, -0.1))
        u = np.array([0.0, 1.0, 2.0])
        expected = u + 0.5 * u**2 - 0.1 * u**3
        np.testing.assert_allclose(eval_nonlinearity(f, u), expected)

    def test_powers_bitwise_pow_on_integer_inputs(self):
        # a running power is exact on integer-valued deviations, such as
        # every grid of step 1 or 2 around an integer operating point; on
        # other inputs it differs from ** in the last bits only
        f = StaticNonlinearity((0.115034, 0.133773, -0.02614))
        u = np.arange(-20.0, 21.0)
        want = u.copy()
        for i, r in enumerate(f.coeffs, start=2):
            want = want + r * u**i
        assert eval_nonlinearity(f, u).tobytes() == want.tobytes()
        u = np.linspace(-2.3, 2.9, 101)
        np.testing.assert_allclose(eval_nonlinearity(f, u), u + 0.115034 * u**2
                                   + 0.133773 * u**3 - 0.02614 * u**4, rtol=1e-14, atol=1e-14)

    def test_exactly_polynomial(self):
        # finite differences of order p+1 over an arithmetic grid vanish
        f = StaticNonlinearity((0.3, -0.2, 0.05))
        u = np.linspace(-2.0, 2.0, 41)
        values = eval_nonlinearity(f, u)
        diffs = np.diff(values, n=f.degree + 1)
        assert np.max(np.abs(diffs)) < 1e-10

    def test_degree(self):
        assert StaticNonlinearity().degree == 1
        assert StaticNonlinearity((1.0, 2.0, 3.0)).degree == 4


class TestChannelSimulation:
    def test_zero_input_zero_output(self):
        ch = HammersteinChannel(
            StaticNonlinearity((0.4,)), LinearDynamics(a=(-0.5,), b=(1.0, 0.2), d=2)
        )
        y = simulate_channel(ch, np.zeros(100))
        assert np.all(y == 0.0)

    def test_impulse_hand_unrolled(self):
        # y(k) = 0.5 y(k-1) + u(k-1): impulse gives 0, 1, 0.5, 0.25, ...
        ch = HammersteinChannel(StaticNonlinearity(), LinearDynamics(a=(-0.5,), b=(1.0,), d=1))
        u = np.zeros(6)
        u[0] = 1.0
        y = simulate_channel(ch, u)
        np.testing.assert_allclose(y, [0.0, 1.0, 0.5, 0.25, 0.125, 0.0625], atol=1e-15)

    @pytest.mark.parametrize("d", [0, 1, 3])
    def test_first_response_at_delay(self, d):
        ch = HammersteinChannel(
            StaticNonlinearity((0.2,)), LinearDynamics(a=(-0.3, 0.1), b=(1.0, -0.4), d=d)
        )
        u = np.ones(20)
        y = simulate_channel(ch, u)
        assert np.all(y[:d] == 0.0)
        assert y[d] != 0.0

    def test_delay_shift_property(self):
        rng = np.random.default_rng(3)
        ch = HammersteinChannel(
            StaticNonlinearity((0.3,)), LinearDynamics(a=(-0.8, 0.15), b=(0.7, 0.2), d=1)
        )
        u = rng.normal(size=60)
        y = simulate_channel(ch, u)
        for k in (1, 4):
            shifted = simulate_channel(ch, np.concatenate([np.zeros(k), u]))
            assert np.all(shifted[:k] == 0.0)
            np.testing.assert_allclose(shifted[k:], y[: len(u)], atol=1e-14)

    def test_linear_superposition_post_nonlinearity(self):
        rng = np.random.default_rng(4)
        dyn = LinearDynamics(a=(-1.2, 0.5), b=(1.0, 0.3, -0.2), d=2)
        v1, v2 = rng.normal(size=(2, 80))
        lhs = simulate_linear(dyn, v1 + v2)
        rhs = simulate_linear(dyn, v1) + simulate_linear(dyn, v2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_matches_independent_recursion(self):
        rng = np.random.default_rng(5)
        r, b, d, a = [0.25, -0.05], [0.9, 0.4, -0.1], 2, [-1.1, 0.4]
        u = rng.normal(size=120)
        ch = HammersteinChannel(StaticNonlinearity(tuple(r)), LinearDynamics(tuple(a), tuple(b), d))
        np.testing.assert_allclose(
            simulate_channel(ch, u), recursion_oracle(r, b, d, a, u), atol=1e-12
        )

    @given(n=st.integers(0, 6), m=st.integers(0, 6), d=st.integers(0, 3),
           N=st.integers(1, 2000), seed=st.integers(0, 2**32 - 1))
    def test_matches_lfilter_on_stable_filters(self, n, m, d, N, seed):
        rng = np.random.default_rng(seed)
        # poles of radius below 0.95: conjugate pairs, and one real pole for odd n
        radius, angle = rng.uniform(0.0, 0.95, size=n), rng.uniform(0.0, np.pi, size=n)
        poles = [radius[i] * np.exp(sign * 1j * angle[i])
                 for i in range(0, n - 1, 2) for sign in (1, -1)]
        if n % 2:
            poles.append(radius[-1] * np.sign(np.cos(angle[-1])))
        a = np.real(np.poly(poles))[1:] if n else np.zeros(0)
        dyn = LinearDynamics(a=tuple(a), b=tuple(rng.uniform(-1.0, 1.0, size=m + 1)), d=d)
        v = rng.normal(size=N)
        y = simulate_linear(dyn, v)
        ref = lfilter((0.0,) * d + dyn.b, (1.0,) + dyn.a, v)
        assert y.shape == (N,)
        assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_matches_lfilter_on_preset_channels_at_1e5_samples(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=100_000)
        for row in gtaw_pool_model().channels:
            for ch in row:
                dyn = ch.dynamics
                y = simulate_linear(dyn, v)
                ref = lfilter((0.0,) * dyn.d + dyn.b, (1.0,) + dyn.a, v)
                assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_empty_input_rejected(self):
        ch = HammersteinChannel(StaticNonlinearity(), LinearDynamics((), (1.0,), 0))
        with pytest.raises(ValueError):
            simulate_channel(ch, np.array([]))


class TestMimoSimulation:
    def test_zero_inputs_zero_outputs(self):
        model = gtaw_pool_model()
        y = simulate_mimo(model, np.zeros((64, 2)))
        assert np.all(y == 0.0)

    def test_single_active_input_equals_channel(self):
        model = gtaw_pool_model()
        rng = np.random.default_rng(6)
        u1 = rng.uniform(-20, 20, 200)
        U = np.column_stack([u1, np.zeros(200)])
        y = simulate_mimo(model, U)
        ch = simulate_channel(model.channels[0][0], u1)
        np.testing.assert_allclose(y[:, 0], ch, atol=1e-14)

    def test_step_response_against_oracle_recursion(self):
        # both inputs step to one unit of deviation at k = 0
        model = gtaw_pool_model()
        U = np.ones((20, 2))
        y = simulate_mimo(model, U)
        ref = oracle_mimo([U[:, 0], U[:, 1]])
        np.testing.assert_allclose(y[:, 0], ref[0], atol=1e-13)
        np.testing.assert_allclose(y[:, 1], ref[1], atol=1e-13)

    def test_length_mismatch_rejected(self):
        model = gtaw_pool_model()
        with pytest.raises(ValueError, match="lengths differ"):
            simulate_mimo(model, [np.zeros(5), np.zeros(6)])

    def test_input_count_mismatch_rejected(self):
        model = gtaw_pool_model()
        with pytest.raises(ValueError, match="expects 2 inputs"):
            simulate_mimo(model, np.zeros((10, 3)))


class TestPreset:
    def test_published_coefficients(self):
        model = gtaw_pool_model()
        assert model.channels[0][0].nonlinearity.coeffs[0] == -0.01476
        assert model.channels[0][0].dynamics.d == 1
        assert model.channels[1][0].dynamics.d == 3
        # every printed value sits in the grid exactly
        for s, row in enumerate(ORACLE_CHANNELS):
            for j, (r, b, d, a) in enumerate(row):
                ch = model.channels[s][j]
                assert list(ch.nonlinearity.coeffs) == r
                assert list(ch.dynamics.b) == b
                assert ch.dynamics.d == d
                assert list(ch.dynamics.a) == a

    def test_rows_share_denominators(self):
        model = gtaw_pool_model()
        assert model.channels[0][0].dynamics.a == model.channels[0][1].dynamics.a
        assert model.channels[1][0].dynamics.a == model.channels[1][1].dynamics.a

    def test_labels_and_operating_point(self):
        model = gtaw_pool_model()
        assert model.input_names == ("I_p", "V_f")
        assert model.output_names == ("W_b", "H_f")
        assert model.operating_point == {"I_p": 150.0, "V_f": 7.0}

    def test_stable_and_bounded_on_long_grid_input(self):
        model = gtaw_pool_model()
        assert max_pole_radius(model) < 1.0
        u1 = generate_excitation(AmplitudeGrid(130, 170, 2), 10_000, seed=11) - 150.0
        u2 = generate_excitation(AmplitudeGrid(4, 10, 1), 10_000, seed=12) - 7.0
        y = simulate_mimo(model, np.column_stack([u1, u2]))
        assert np.all(np.isfinite(y))
        assert np.max(np.abs(y)) < 100.0

    def test_registry(self):
        assert preset_model("paper-gtaw").channels == gtaw_pool_model().channels
        with pytest.raises(KeyError, match="paper-gtaw"):
            preset_model("nonexistent")


class TestModelInvariants:
    def test_row_denominator_mismatch_rejected(self):
        ch1 = HammersteinChannel(StaticNonlinearity(), LinearDynamics((-0.5,), (1.0,), 0))
        ch2 = HammersteinChannel(StaticNonlinearity(), LinearDynamics((-0.4,), (1.0,), 0))
        with pytest.raises(ValueError, match="denominator"):
            MimoHammersteinModel(
                channels=((ch1, ch2),),
                input_names=("u1", "u2"),
                output_names=("y1",),
            )

    def test_ragged_grid_rejected(self):
        ch = HammersteinChannel(StaticNonlinearity(), LinearDynamics((), (1.0,), 0))
        with pytest.raises(ValueError, match="ragged"):
            MimoHammersteinModel(
                channels=((ch, ch), (ch,)),
                input_names=("u1", "u2"),
                output_names=("y1", "y2"),
            )

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="delay"):
            LinearDynamics(a=(), b=(1.0,), d=-1)

    def test_repeated_signal_name_rejected(self):
        ch = HammersteinChannel(StaticNonlinearity(), LinearDynamics((), (1.0,), 0))
        with pytest.raises(ValueError, match="^signal name 'u' is repeated$"):
            MimoHammersteinModel(channels=((ch,),), input_names=("u",), output_names=("u",))

    @bad_signal_names
    def test_bad_signal_name_rejected(self, name, reason):
        ch = HammersteinChannel(StaticNonlinearity(), LinearDynamics((), (1.0,), 0))
        with pytest.raises(ValueError, match=f"^{re.escape(f'signal name {name!r} {reason}')}$"):
            MimoHammersteinModel(channels=((ch,),), input_names=("u",), output_names=(name,))


class TestDataset:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_naming_the_series(self, bad):
        inputs = np.ones((10, 2))
        outputs = np.zeros((10, 1))
        outputs[4, 0] = bad
        with pytest.raises(ValueError, match=r"series 'y' has non-finite value .* at sample 4"):
            Dataset(1.0, inputs, outputs, ("u1", "u2"), ("y",))
        inputs[6, 1] = bad
        with pytest.raises(ValueError, match="series 'u2'"):
            Dataset(1.0, inputs, np.zeros((10, 1)), ("u1", "u2"), ("y",))

    @pytest.mark.parametrize("period, shown", [(np.nan, "nan"), (np.inf, "inf"),
                                               (-np.inf, "-inf"), (0.0, "0.0")])
    def test_sample_period_must_be_finite_and_positive(self, period, shown):
        # a NaN or inf period would be saved to a file that load_dataset rejects
        with pytest.raises(ValueError, match=f"^sample_period must be finite and > 0, "
                                             f"got {re.escape(shown)}$"):
            Dataset(period, np.ones((10, 1)), np.zeros((10, 1)), ("u",), ("y",))

    def test_repeated_signal_name_rejected(self):
        with pytest.raises(ValueError, match="^signal name 'y' is repeated$"):
            Dataset(1.0, np.ones((10, 1)), np.zeros((10, 2)), ("u",), ("y", "y"))

    @bad_signal_names
    def test_bad_signal_name_rejected(self, name, reason):
        # such a name would break a file name or the dataset header on save
        with pytest.raises(ValueError, match=f"^{re.escape(f'signal name {name!r} {reason}')}$"):
            Dataset(1.0, np.ones((10, 1)), np.zeros((10, 1)), (name,), ("y",))

    def test_inner_space_accepted(self):
        data = Dataset(1.0, np.ones((10, 1)), np.zeros((10, 1)), ("input 0",), ("y",))
        assert data.input_names == ("input 0",)
