import numpy as np
import pytest
from scipy.ndimage import median_filter as ndimage_median_filter

from hammid import Dataset
from hammid.preprocess import (
    median_filter,
    prepare_dataset,
    remove_dc,
)


class TestMedianFilter:
    def test_constant_series_unchanged(self):
        x = np.full(20, 3.5)
        np.testing.assert_array_equal(median_filter(x, 5), x)

    def test_spike_removed_with_edge_replication(self):
        # padded [1,1,9,1,1] -> medians [1,1,1]
        np.testing.assert_array_equal(median_filter([1.0, 9.0, 1.0], 3), [1.0, 1.0, 1.0])

    def test_window_one_is_identity(self):
        x = np.random.default_rng(0).normal(size=30)
        np.testing.assert_array_equal(median_filter(x, 1), x)

    def test_monotone_passes_through(self):
        x = np.linspace(0, 5, 25)
        np.testing.assert_allclose(median_filter(x, 3), x)

    def test_idempotent_on_plateaued_series(self):
        # no runs shorter than 2, window 3
        x = np.array([0.0, 0.0, 2.0, 2.0, 2.0, 1.0, 1.0, 5.0, 5.0])
        once = median_filter(x, 3)
        np.testing.assert_array_equal(median_filter(once, 3), once)

    def test_affine_commutation(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=50)
        alpha, beta = 2.5, -1.75
        lhs = median_filter(alpha * x + beta, 5)
        rhs = alpha * median_filter(x, 5) + beta
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("window", [1, 3, 5, 7, 9, 11])
    def test_bitwise_equal_to_ndimage(self, window):
        rng = np.random.default_rng(window)
        # n = window: the window spans the whole series
        for n in (window, window + 1, 40, 301):
            # a few levels only, so most windows hold ties
            for x in (rng.integers(-3, 4, size=n) * 0.5, rng.normal(size=n)):
                np.testing.assert_array_equal(
                    median_filter(x, window), ndimage_median_filter(x, size=window, mode="nearest")
                )

    def test_invalid_windows(self):
        with pytest.raises(ValueError):
            median_filter([1.0, 2.0, 3.0], 2)
        with pytest.raises(ValueError):
            median_filter([1.0, 2.0, 3.0], 5)
        with pytest.raises(ValueError):
            median_filter([1.0, 2.0, 3.0], -1)


class TestRemoveDc:
    def test_mean_removal(self):
        out, offset = remove_dc([150.0, 152.0, 148.0])
        np.testing.assert_array_equal(out, [0.0, 2.0, -2.0])
        assert offset == 150.0

    def test_zero_mean_unchanged(self):
        x = np.array([-1.0, 1.0, -1.0, 1.0])
        out, offset = remove_dc(x)
        np.testing.assert_array_equal(out, x)
        assert offset == 0.0

    def test_reference_removal(self):
        x = np.array([151.0, 149.5, 150.25])
        out, offset = remove_dc(x, reference=150.0)
        np.testing.assert_allclose(out, [1.0, -0.5, 0.25])
        assert offset == 150.0

    def test_add_back_reconstructs(self):
        rng = np.random.default_rng(2)
        x = rng.normal(100.0, 5.0, 40)
        out, offset = remove_dc(x)
        np.testing.assert_array_equal(out + offset, x)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            remove_dc([])


class TestPrepareDataset:
    def _dataset(self):
        rng = np.random.default_rng(3)
        inputs = 150.0 + rng.integers(-10, 10, size=(50, 1)) * 2.0
        outputs = rng.normal(4.0, 0.5, size=(50, 1))
        return Dataset(
            sample_period=1.0,
            inputs=inputs,
            outputs=outputs,
            input_names=("I_p",),
            output_names=("W_b",),
            operating_point={"I_p": 150.0},
        )

    def test_operating_point_preferred_over_mean(self):
        data = self._dataset()
        deviations, offsets = prepare_dataset(data, median_window=1)
        assert offsets["I_p"] == 150.0
        np.testing.assert_array_equal(deviations.inputs[:, 0], data.inputs[:, 0] - 150.0)
        # no declared output operating point: mean removed
        assert offsets["W_b"] == pytest.approx(np.mean(data.outputs[:, 0]))
        assert abs(np.mean(deviations.outputs[:, 0])) < 1e-12

    def test_outputs_filtered_inputs_untouched_by_default(self):
        data = self._dataset()
        data.outputs[10, 0] = 50.0  # spike
        deviations, offsets = prepare_dataset(data, median_window=3)
        restored = deviations.outputs[:, 0] + offsets["W_b"]
        assert abs(restored[10]) < 10.0  # spike filtered out
        np.testing.assert_array_equal(
            deviations.inputs[:, 0] + offsets["I_p"], data.inputs[:, 0]
        )

    def test_filter_inputs_flag(self):
        data = self._dataset()
        data.inputs[5, 0] = 1000.0
        deviations, offsets = prepare_dataset(data, median_window=3, filter_inputs=True)
        assert deviations.inputs[5, 0] + offsets["I_p"] < 500.0

    def test_other_fields_carried_over(self):
        data = self._dataset()
        data.sample_period = 0.5
        data.units = {"I_p": "A", "W_b": "mm"}
        deviations, _ = prepare_dataset(data, median_window=3)
        assert deviations.sample_period == 0.5
        assert deviations.input_names == ("I_p",)
        assert deviations.output_names == ("W_b",)
        assert deviations.units == {"I_p": "A", "W_b": "mm"}
        assert deviations.units is not data.units
        # deviation-scale data has no operating point; the input is left untouched
        assert deviations.operating_point == {}
        assert data.operating_point == {"I_p": 150.0}

    def test_offsets_list_inputs_then_outputs(self):
        data = Dataset(1.0, np.ones((10, 2)), np.zeros((10, 2)), ("b", "a"), ("d", "c"))
        _, offsets = prepare_dataset(data, median_window=1)
        assert list(offsets) == ["b", "a", "d", "c"]

    def test_even_window_rejected(self):
        with pytest.raises(ValueError, match="^window must be odd and >= 1, got 4$"):
            prepare_dataset(self._dataset(), median_window=4)
