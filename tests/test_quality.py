"""Quality ratchet: ``identify`` on noisy preset data, one panel per cause.

Eight N = 1070 datasets of the preset (the benchmark's recipe, generated here
from fixed seeds) are identified and scored against the preset:

- the spiky panel: 1% Gaussian noise and +-5 x RMS spikes on 0.5% of the
  output samples, identified with ``load_config(None)``;
- the Gaussian-only panel: the same 1% noise without spikes, identified
  without the median filter (``median_window`` 1), defaults otherwise, so
  that what is left is the LS bias and the selected orders.

Each bound is the value measured when it was set plus a stated margin; a
change that improves a score tightens its row and says so.
"""

import statistics

import numpy as np

from hammid import gtaw_pool_model, identify, load_config

from helpers import noisy_preset_dataset, param_rel_error

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
