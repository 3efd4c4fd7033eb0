"""Quality ratchet: ``identify`` at the default config on noisy preset data.

Eight N = 1070 datasets of the preset, each with 1% Gaussian noise and
+-5 x RMS spikes on 0.5% of the output samples (the benchmark's recipe,
generated here from fixed seeds), are identified with ``load_config(None)``
and scored against the preset.  Each bound is the value measured when it was
set plus a stated margin; a change that improves a score tightens its row
and says so.
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


def test_identify_at_the_defaults_keeps_its_quality():
    preset = gtaw_pool_model()
    cfg = load_config(None)
    hits, errors = [], []
    for seeds, noise_seed in DATASETS:
        model = identify(noisy_preset_dataset(seeds, noise_seed), cfg).model
        errors.append(param_rel_error(model, preset))
        hits += [ch.dynamics.d == true.dynamics.d
                 for row, true_row in zip(model.channels, preset.channels)
                 for ch, true in zip(row, true_row)]
    value, margin = BOUNDS["delays_recovered"]
    assert np.mean(hits) >= value - margin
    value, margin = BOUNDS["param_rel_error"]
    assert statistics.median(errors) <= value + margin
