"""Quality ratchet: ``identify`` on noisy preset data, one panel per cause.

Eight N = 1070 datasets of the preset (the benchmark's recipe, generated here
from fixed seeds) are identified and scored against the preset:

- the spiky panel: 1% Gaussian noise and +-5 x RMS spikes on 0.5% of the
  output samples, identified with ``load_config(None)``;
- the Gaussian-only panel: the same 1% noise without spikes, identified
  without the median filter (``median_window`` 1), defaults otherwise, so
  that what is left is the LS bias and the selected orders.

One more row scores the validation itself: the preset, re-identified at its
true orders on its own noise-free data, is exact, so its hold-out error is
all the validation's.

Each bound is the value measured when it was set plus a stated margin; a
change that improves a score tightens its row and says so.
"""

import statistics

import numpy as np

from hammid import gtaw_pool_model, identify, load_config

from helpers import noisy_preset_dataset, param_rel_error, preset_oracle_dataset

# (excitation seeds of I_p and V_f, noise seed) of each dataset
DATASETS = [((2 * k + 1, 2 * k + 2), k + 1) for k in range(8)]

# metric: (value when the bound was set, margin)
BOUNDS = {
    # share of the 32 channel delays (8 datasets x 4 channels) recovered,
    # at least value - margin: the margin is one channel
    "delays_recovered": (0.1875, 1 / 32),
    # median over the datasets, at most value + margin
    "param_rel_error": (0.8486, 0.02),
}

# the Gaussian-only panel: median param_rel_error 0.660 (range 0.633-0.674),
# every delay recovered, and (n, m) = (6, 6) on all 16 outputs
GAUSSIAN_BOUNDS = {
    "delays_recovered": (1.0, 1 / 32),
    "param_rel_error": (0.660, 0.02),
    # share of the 16 outputs (8 datasets x 2) selected at the preset's
    # (n, m) = (5, 5), at least value - margin
    "true_orders": (0.0, 0.0),
}


def _orders(row):
    """An output row's (n, m): its denominator order and its largest numerator
    order, the search's uniform m; the preset's is (5, 5) on both outputs."""
    return row[0].dynamics.n, max(ch.dynamics.m for ch in row)


def _identify_panel(cfg, spikes):
    """Identify every dataset; the delay hits, param_rel_error per dataset
    and whether each output's selected (n, m) is the preset's."""
    preset = gtaw_pool_model()
    hits, errors, at_true = [], [], []
    for seeds, noise_seed in DATASETS:
        result = identify(noisy_preset_dataset(seeds, noise_seed, spikes=spikes), cfg)
        model = result.model
        errors.append(param_rel_error(model, preset))
        hits += [ch.dynamics.d == true.dynamics.d
                 for row, true_row in zip(model.channels, preset.channels)
                 for ch, true in zip(row, true_row)]
        at_true += [_orders(row) == _orders(true_row)
                    for row, true_row in zip(model.channels, preset.channels)]
    return hits, errors, at_true


def test_identify_at_the_defaults_keeps_its_quality():
    hits, errors, _ = _identify_panel(load_config(None), spikes=True)
    value, margin = BOUNDS["delays_recovered"]
    assert np.mean(hits) >= value - margin
    value, margin = BOUNDS["param_rel_error"]
    assert statistics.median(errors) <= value + margin


def test_identify_on_gaussian_noise_keeps_its_quality():
    cfg = load_config(None)
    cfg["preprocess"]["median_window"] = 1
    hits, errors, at_true = _identify_panel(cfg, spikes=False)
    value, margin = GAUSSIAN_BOUNDS["delays_recovered"]
    assert np.mean(hits) >= value - margin
    value, margin = GAUSSIAN_BOUNDS["param_rel_error"]
    assert statistics.median(errors) <= value + margin
    value, margin = GAUSSIAN_BOUNDS["true_orders"]
    assert np.mean(at_true) >= value - margin


# the preset's true orders: output W_b, then H_f
TRUE_ORDERS = [
    {"n": 5, "channels": [{"p": 2, "m": 3, "d": 1}, {"p": 4, "m": 5, "d": 1}]},
    {"n": 5, "channels": [{"p": 2, "m": 5, "d": 3}, {"p": 4, "m": 5, "d": 3}]},
]

# hold-out RMS error of the exact model per output, at most value + margin:
# 0.013167 and 0.17022 when the bound was set.  The 70-sample hold-out is
# free-run from a zero state, and that start-up transient is all of it; a
# validation warm-started from the training samples (ROADMAP item 1) must
# bring both below 1e-9 and tighten this row
EXACT_MODEL_BOUNDS = {"W_b": (0.01317, 0.0003), "H_f": (0.1702, 0.003)}


def test_exact_model_scored_by_its_hold_out():
    # operating points declared 0: removing the series means instead would
    # shift the polynomials' argument, and the true orders would no longer
    # hold the model exactly
    data = preset_oracle_dataset(n_samples=1070)
    data.operating_point = dict.fromkeys(data.input_names + data.output_names, 0.0)
    cfg = load_config(None)
    cfg["preprocess"]["median_window"] = 1
    cfg["fixed_orders"] = TRUE_ORDERS
    result = identify(data, cfg)
    assert param_rel_error(result.model, gtaw_pool_model()) < 1e-9
    assert [out.n_test for out in result.report.outputs] == [70, 70]
    for out in result.report.outputs:
        value, margin = EXACT_MODEL_BOUNDS[out.name]
        assert out.rms_error <= value + margin
