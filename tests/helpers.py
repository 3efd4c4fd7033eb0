"""Shared test utilities.

``recursion_oracle`` is an independent plain-Python implementation of the
channel difference equation used to cross-check the library simulator: it
shares no code with hammid.model and the published coefficients are retyped
here on purpose.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from hammid import Dataset, gtaw_pool_model, simulate_mimo
from hammid.excitation import AmplitudeGrid, generate_excitation

# signal names the signal-name rule rejects: id -> (name, end of the message)
BAD_SIGNAL_NAMES = {
    "slash": ("a/b", "contains '/'"),
    "backslash": ("a\\b", "contains " + repr("\\")),
    "comma": ("I,p", "contains ','"),
    "equals": ("I=p", "contains '='"),
    "leading-space": (" I_p", "has leading or trailing white space"),
    "trailing-space": ("I_p ", "has leading or trailing white space"),
    "empty": ("", "is empty"),
    "tab": ("a\tb", "contains " + repr("\t")),
}

# published weld-pool coefficients, retyped independently of the package
ORACLE_A1 = [-1.73603, 0.728305, 0.580712, -0.85552, 0.320009]
ORACLE_A2 = [-1.29125, 0.253601, 0.543266, -0.69655, 0.240607]
ORACLE_CHANNELS = [
    # output row 0: (r-coeffs, b, delay, a)
    [
        ([-0.01476], [0.004744, -0.0031, 0.000158, -0.0015], 1, ORACLE_A1),
        ([0.002972, -0.00315, 0.000152],
         [0.00568, 0.002351, 0.000844, 0.000724, -0.00253, -0.00333], 1, ORACLE_A1),
    ],
    # output row 1
    [
        ([-0.04142], [0.001614, -0.0047, -0.00742, 0.0000138, -0.00924, 0.002941], 3, ORACLE_A2),
        ([0.115034, 0.133773, -0.02614],
         [0.005929, -0.01733, 0.010646, -0.01391, -0.00406, -0.02969], 3, ORACLE_A2),
    ],
]


def recursion_oracle(r_coeffs, b, d, a, u, e=None):
    """Direct loop over y(k) = -sum a_i y(k-i) + sum b_l v(k-d-l) [+ e(k)]."""
    u = np.asarray(u, dtype=float)
    v = u.copy()
    for i, r in enumerate(r_coeffs, start=2):
        v = v + r * u**i
    y = np.zeros(len(u))
    for k in range(len(u)):
        acc = 0.0
        for i, ai in enumerate(a, start=1):
            if k - i >= 0:
                acc -= ai * y[k - i]
        for l, bl in enumerate(b):
            src = k - d - l
            if src >= 0:
                acc += bl * v[src]
        if e is not None:
            acc += e[k]
        y[k] = acc
    return y


def oracle_mimo(U, noise=None):
    """Oracle recursion over the published two-by-two model."""
    outs = []
    for s, row in enumerate(ORACLE_CHANNELS):
        y = np.zeros(len(U[0]))
        for j, (r, b, d, a) in enumerate(row):
            y += recursion_oracle(r, b, d, a, U[j])
        if noise is not None:
            y = y + noise[:, s]
        outs.append(y)
    return outs


def default_excitation(n_samples: int, seeds=(1, 2)):
    """Deviation-scale peak-current and wire-feed excitation."""
    u1 = generate_excitation(AmplitudeGrid(130.0, 170.0, 2.0), n_samples, seed=seeds[0]) - 150.0
    u2 = generate_excitation(AmplitudeGrid(4.0, 10.0, 1.0), n_samples, seed=seeds[1]) - 7.0
    return u1, u2


def preset_oracle_dataset(n_samples: int = 1070, seeds=(1, 2), noise_std: float = 0.0,
                          rng: np.random.Generator | None = None) -> Dataset:
    """Simulate the built-in model on the default excitation, deviation scale."""
    u1, u2 = default_excitation(n_samples, seeds)
    model = gtaw_pool_model()
    outputs = simulate_mimo(model, np.column_stack([u1, u2]))
    if noise_std > 0.0:
        outputs = outputs + (rng or np.random.default_rng(0)).normal(
            0.0, noise_std, outputs.shape
        )
    return Dataset(
        sample_period=1.0,
        inputs=np.column_stack([u1, u2]),
        outputs=outputs,
        input_names=("I_p", "V_f"),
        output_names=("W_b", "H_f"),
        operating_point={},
    )


def expected_preset_theta(output: int) -> np.ndarray:
    """Hand-computed regression parameters of one published output row:
    a_1..a_n followed by the products r_i * b_l per input and power."""
    row = ORACLE_CHANNELS[output]
    theta = list(row[0][3])
    for r_coeffs, b, _d, _a in row:
        r_full = [1.0] + list(r_coeffs)
        for r in r_full:
            theta.extend(r * bl for bl in b)
    return np.array(theta)


def noisy_preset_dataset(seeds, noise_seed: int, n_samples: int = 1070) -> Dataset:
    """The preset's response to the default excitation at ``seeds`` with 1%
    Gaussian noise and +-5 x RMS spikes on 0.5% of the samples of each output,
    drawn from ``noise_seed``.  Every operating point is declared 0, as for a
    record whose inputs and outputs are already at deviation scale."""
    data = preset_oracle_dataset(n_samples=n_samples, seeds=seeds)
    rng = np.random.default_rng(noise_seed)
    rms = np.sqrt(np.mean(data.outputs**2, axis=0))
    y = data.outputs + 0.01 * rms * rng.standard_normal(data.outputs.shape)
    spikes = rng.random(y.shape) < 0.005
    data.outputs = y + spikes * 5.0 * rms * rng.choice([-1.0, 1.0], size=y.shape)
    data.operating_point = dict.fromkeys(data.input_names + data.output_names, 0.0)
    return data


def param_rel_error(model, reference) -> float:
    """||theta - theta_ref|| / ||theta_ref|| over every output's a and every
    channel's r and delayed numerator [0]*d + b, each zero-padded to the
    longer of the two models."""
    def parts(m):
        for row in m.channels:
            yield row[0].dynamics.a
            for ch in row:
                yield ch.nonlinearity.coeffs
                yield (0.0,) * ch.dynamics.d + tuple(ch.dynamics.b)

    est, ref = [], []
    for a, b in zip(parts(model), parts(reference)):
        width = max(len(a), len(b))
        est += list(a) + [0.0] * (width - len(a))
        ref += list(b) + [0.0] * (width - len(b))
    return float(np.linalg.norm(np.subtract(est, ref)) / np.linalg.norm(ref))


def offenders_from_H(H, rank, column_map=()) -> list[tuple[str, str]]:
    """Reference naming of a rank-deficient regression, read straight off H:
    the pivots of a pivoted QR of H beyond ``rank`` are the dependent
    columns, each paired with the kept column whose normalized H column it
    is most correlated with.  Labels as the estimator gives them: by
    ``column_map``, or ``column c`` when it is empty."""
    _, _, piv = scipy.linalg.qr(H, mode="economic", pivoting=True)
    kept = piv[:rank]
    norms = np.sqrt(np.sum(H * H, axis=0))
    Hn = H / np.where(norms == 0, 1.0, norms)

    def label(c):
        return column_map[c].label() if column_map else f"column {c}"

    pairs = []
    for c in piv[rank:]:
        corr = np.abs(np.sum(Hn[:, kept] * Hn[:, [c]], axis=0))
        pairs.append((label(c), label(kept[int(np.argmax(corr))] if len(kept) else c)))
    return pairs
