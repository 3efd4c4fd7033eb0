import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import lfilter

from hammid import Dataset, eval_nonlinearity, evaluate, gtaw_pool_model, split_dataset
from hammid.validate import (
    REPORTED_HOLDOUT_REFERENCE,
    _one_step_prediction,
    format_trace,
    format_validation_report,
)

from helpers import ORACLE_CHANNELS, preset_oracle_dataset


class TestSplit:
    def test_published_budget(self):
        data = preset_oracle_dataset(n_samples=1070)
        train, test = split_dataset(data, 1000)
        assert train.n_samples == 1000
        assert test.n_samples == 70

    def test_single_test_sample(self):
        data = preset_oracle_dataset(n_samples=50)
        _, test = split_dataset(data, 49)
        assert test.n_samples == 1

    def test_bounds(self):
        data = preset_oracle_dataset(n_samples=50)
        with pytest.raises(ValueError):
            split_dataset(data, 0)
        with pytest.raises(ValueError):
            split_dataset(data, 50)

    def test_concatenation_restores_original(self):
        data = preset_oracle_dataset(n_samples=80)
        train, test = split_dataset(data, 30)
        np.testing.assert_array_equal(
            np.vstack([train.inputs, test.inputs]), data.inputs
        )
        np.testing.assert_array_equal(
            np.vstack([train.outputs, test.outputs]), data.outputs
        )
        assert train.n_samples + test.n_samples == data.n_samples


    def test_other_fields_carried_over(self):
        data = preset_oracle_dataset(n_samples=80)
        data.sample_period = 0.5
        data.units = {"I_p": "A", "W_b": "mm"}
        data.operating_point = {"I_p": 150.0, "H_f": 2.5}
        for piece in split_dataset(data, 30):
            assert piece.sample_period == 0.5
            assert piece.input_names == data.input_names
            assert piece.output_names == data.output_names
            assert piece.units == data.units
            assert piece.units is not data.units
            assert piece.operating_point == data.operating_point
            assert piece.operating_point is not data.operating_point
            assert not np.shares_memory(piece.inputs, data.inputs)
            assert not np.shares_memory(piece.outputs, data.outputs)


class TestEvaluate:
    def test_generating_model_scores_zero(self):
        data = preset_oracle_dataset(n_samples=300)
        report = evaluate(gtaw_pool_model(), data)
        for out in report.outputs:
            assert abs(out.mean_error) < 1e-12
            assert out.std_error < 1e-12
            assert out.max_abs_error < 1e-12

    def test_free_run_ignores_measured_outputs(self):
        data = preset_oracle_dataset(n_samples=200)
        report = evaluate(gtaw_pool_model(), data)
        perturbed = Dataset(
            sample_period=data.sample_period,
            inputs=data.inputs,
            outputs=data.outputs + 5.0,
            input_names=data.input_names,
            output_names=data.output_names,
        )
        report_p = evaluate(gtaw_pool_model(), perturbed)
        np.testing.assert_array_equal(report.predicted, report_p.predicted)

    def test_statistics_recomputable_from_traces(self):
        rng = np.random.default_rng(60)
        data = preset_oracle_dataset(n_samples=150, noise_std=0.1, rng=rng)
        report = evaluate(gtaw_pool_model(), data)
        err = report.actual - report.predicted
        for s, out in enumerate(report.outputs):
            assert out.mean_error == np.mean(err[:, s])
            assert out.std_error == np.std(err[:, s])
            assert out.rms_error == np.sqrt(np.mean(err[:, s] ** 2))
            assert out.max_abs_error == np.max(np.abs(err[:, s]))
            assert out.n_test == 150

    def test_noise_bracket_single_trial(self):
        rng = np.random.default_rng(61)
        data = preset_oracle_dataset(n_samples=500, noise_std=0.05, rng=rng)
        report = evaluate(gtaw_pool_model(), data)
        for out in report.outputs:
            assert 0.04 < out.std_error < 0.06

    def test_one_step_ahead_exact_on_own_data(self):
        data = preset_oracle_dataset(n_samples=200)
        report = evaluate(gtaw_pool_model(), data, one_step_ahead=True)
        for out in report.outputs:
            assert out.max_abs_error < 1e-12

    def test_one_step_ahead_uses_measurements(self):
        rng = np.random.default_rng(62)
        data = preset_oracle_dataset(n_samples=200, noise_std=0.2, rng=rng)
        free = evaluate(gtaw_pool_model(), data)
        osa = evaluate(gtaw_pool_model(), data, one_step_ahead=True)
        assert not np.array_equal(free.predicted, osa.predicted)
        # plain loop over the published coefficients, zero history before k = 0
        ref = np.zeros((200, 2))
        for s, row in enumerate(ORACLE_CHANNELS):
            for k in range(200):
                acc = -sum(ai * data.outputs[k - i, s]
                           for i, ai in enumerate(row[0][3], start=1) if k - i >= 0)
                for j, (r, b, d, _a) in enumerate(row):
                    for l, bl in enumerate(b):
                        if k - d - l >= 0:
                            u = data.inputs[k - d - l, j]
                            acc += bl * (u + sum(ri * u**i for i, ri in enumerate(r, start=2)))
                ref[k, s] = acc
        np.testing.assert_allclose(osa.predicted, ref, rtol=0, atol=1e-12)

    def test_one_step_prediction_matches_lfilter(self):
        rng = np.random.default_rng(64)
        data = preset_oracle_dataset(n_samples=500, noise_std=0.1, rng=rng)
        model = gtaw_pool_model()
        ref = np.zeros((500, 2))
        for s, row in enumerate(model.channels):
            for j, ch in enumerate(row):
                v = eval_nonlinearity(ch.nonlinearity, data.inputs[:, j])
                ref[:, s] += lfilter((0.0,) * ch.dynamics.d + ch.dynamics.b, 1.0, v)
            ref[:, s] -= lfilter((0.0,) + row[0].dynamics.a, 1.0, data.outputs[:, s])
        pred = _one_step_prediction(model, data)
        assert np.max(np.abs(pred - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_std_ddof(self):
        rng = np.random.default_rng(63)
        data = preset_oracle_dataset(n_samples=100, noise_std=0.1, rng=rng)
        pop = evaluate(gtaw_pool_model(), data, std_ddof=0)
        samp = evaluate(gtaw_pool_model(), data, std_ddof=1)
        for a, b in zip(pop.outputs, samp.outputs):
            assert b.std_error > a.std_error

    @pytest.mark.parametrize("ddof", [-3, 2, 50])
    def test_std_ddof_other_than_zero_or_one_rejected(self, ddof):
        data = preset_oracle_dataset(n_samples=50)
        with pytest.raises(ValueError, match=f"^std_ddof must be 0 .* or 1 .*, got {ddof}$"):
            evaluate(gtaw_pool_model(), data, std_ddof=ddof)

    def test_arity_mismatch(self):
        data = preset_oracle_dataset(n_samples=50)
        narrower = Dataset(
            sample_period=1.0,
            inputs=data.inputs[:, :1],
            outputs=data.outputs,
            input_names=("I_p",),
            output_names=data.output_names,
        )
        with pytest.raises(ValueError, match="2x2"):
            evaluate(gtaw_pool_model(), narrower)

    @pytest.mark.parametrize("kind", ["input", "output"])
    def test_signals_in_another_order_rejected(self, kind):
        # the right columns under their own names, but not in the model's order
        data = preset_oracle_dataset(n_samples=50)
        names = getattr(data, f"{kind}_names")
        reordered = replace(data, **{f"{kind}s": getattr(data, f"{kind}s")[:, ::-1],
                                     f"{kind}_names": names[::-1]})
        message = f"dataset {kind}s {list(names[::-1])} differ from the model's {list(names)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate(gtaw_pool_model(), reordered)


def test_reported_reference_constants_documented():
    # reference values for the original hold-out, not reproducible here
    assert REPORTED_HOLDOUT_REFERENCE["W_b"] == {
        "mean_error": 0.07973, "std_error": 0.07769,
    }
    assert REPORTED_HOLDOUT_REFERENCE["H_f"] == {
        "mean_error": -0.07977, "std_error": 0.03096,
    }


class TestFormatting:
    def test_report_text(self):
        data = preset_oracle_dataset(n_samples=100)
        report = evaluate(gtaw_pool_model(), data)
        text = format_validation_report(report)
        assert "free-run" in text
        assert "W_b" in text and "H_f" in text
        assert "rms_err" in text

    def test_trace_text_round_trips(self):
        rng = np.random.default_rng(64)
        data = preset_oracle_dataset(n_samples=20, noise_std=0.05, rng=rng)
        report = evaluate(gtaw_pool_model(), data)
        text = format_trace(report, 0)
        lines = text.strip().splitlines()[1:]
        assert len(lines) == 20
        cells = lines[7].split()
        assert float(cells[1]) == report.actual[7, 0]
        assert float(cells[2]) == report.predicted[7, 0]
        assert float(cells[3]) == report.actual[7, 0] - report.predicted[7, 0]
        # per-cell reference: the same bytes as formatting every cell on its own
        expected = "index actual predicted error  (H_f)\n" + "".join(
            f"{k} {float(report.actual[k, 1])!r} {float(report.predicted[k, 1])!r} "
            f"{float(report.errors[k, 1])!r}\n"
            for k in range(20)
        )
        assert format_trace(report, 1) == expected
