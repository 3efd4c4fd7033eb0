"""Workload definitions: inputs generated from the workload seed.

Every dataset is simulated from the ``paper-gtaw`` preset on minimal-standard
excitation (the grids of the default ``identify`` config) and written the
way ``hammid simulate --dataset-out`` writes it: inputs at physical scale,
outputs at deviation scale, every operating point declared.  The seed fixes
the excitation seed pairs and the noise, so one seed always gives
byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Excitation grids and operating points of the default identify config,
# frozen here so that a change of program defaults does not change the inputs.
INPUTS = (
    {"name": "I_p", "unit": "A", "low": 130.0, "high": 170.0, "step": 2.0, "op": 150.0},
    {"name": "V_f", "unit": "cm/s", "low": 4.0, "high": 10.0, "step": 1.0, "op": 7.0},
)
OUTPUT_UNITS = {"W_b": "mm", "H_f": "mm"}
LCG_MAX = 2**31 - 1  # excitation seeds lie in [1, LCG_MAX - 1]
WARMUP_SAMPLES = 1070  # the warm-up identify runs at the paper's budget


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_samples: int
    n_datasets: int         # distinct datasets; each is identified at least once
    noisy: bool
    config: dict            # identify config written next to the data
    trace_rounds: int       # untraced + traced identify pairs per dataset, trace run
    trace_datasets: int     # datasets the trace run identifies


def true_orders(preset) -> list[dict]:
    """The preset's own per-channel orders, in ``fixed_orders`` form."""
    rows = []
    for row in preset.channels:
        rows.append({
            "n": row[0].dynamics.n,
            "channels": [
                {"p": ch.nonlinearity.degree, "m": ch.dynamics.m, "d": ch.dynamics.d}
                for ch in row
            ],
        })
    return rows


def make_workloads(preset) -> dict[str, Workload]:
    n_fixed = 100_000
    return {w.name: w for w in (
        Workload(
            name="paper-budget",
            why="the paper's N=1070 budget with noise and spikes under default settings; "
                "the delay scan dominates and fixed per-call costs show",
            n_samples=1070, n_datasets=40, noisy=True,
            config={},  # program defaults: median window 5, batch LS, free run
            trace_rounds=1, trace_datasets=6,
        ),
        Workload(
            name="long-record",
            why="N=2e4 noise-free, BLAS-bound delay scan and structure search with "
                "exact fits; true delays recovered",
            n_samples=20_000, n_datasets=1, noisy=False,
            config={"n_samples": 20_000, "n_train": 20_000 - 70,
                    "preprocess": {"median_window": 1}},
            trace_rounds=2, trace_datasets=1,
        ),
        Workload(
            name="fixed-rls",
            why="N=1e5 at the true orders with RLS and one-step validation; "
                "delay scan and search bypassed, RLS and dataset I/O dominate",
            n_samples=n_fixed, n_datasets=1, noisy=False,
            config={"n_samples": n_fixed, "n_train": n_fixed // 2,
                    "preprocess": {"median_window": 1},
                    "fixed_orders": true_orders(preset),
                    "estimator": {"method": "rls"},
                    "validation": {"one_step_ahead": True}},
            trace_rounds=2, trace_datasets=1,
        ),
    )}


def warmup_config(workload: Workload) -> dict:
    """The workload's config at the warm-up dataset's length."""
    cfg = json.loads(json.dumps(workload.config))
    if "n_samples" in cfg:
        cfg["n_samples"] = WARMUP_SAMPLES
        cfg["n_train"] = WARMUP_SAMPLES - 70
    return cfg


def dataset_seeds(seed: int, workload: Workload) -> list[tuple[int, int, int]]:
    """(excitation seed I_p, excitation seed V_f, noise seed) per dataset."""
    rng = np.random.default_rng([seed, workload.n_samples])
    draws = rng.integers(1, LCG_MAX, size=(workload.n_datasets, 3))
    return [tuple(int(v) for v in row) for row in draws]


def simulate_dataset(hammid, preset, n: int, seeds: tuple[int, int, int], noisy: bool):
    """Preset response to fresh excitation; 1% noise plus 0.5% spikes if noisy."""
    physical = np.column_stack([
        hammid.excitation.generate_excitation(
            hammid.excitation.AmplitudeGrid(spec["low"], spec["high"], spec["step"]), n, seed=s
        )
        for spec, s in zip(INPUTS, seeds[:2])
    ])
    deviations = physical - np.array([spec["op"] for spec in INPUTS])
    y = hammid.model.simulate_mimo(preset, deviations)
    if noisy:
        rng = np.random.default_rng(seeds[2])
        rms = np.sqrt(np.mean(y**2, axis=0))
        y = y + 0.01 * rms * rng.standard_normal(y.shape)
        spikes = rng.random(y.shape) < 0.005
        y = y + spikes * 5.0 * rms * rng.choice([-1.0, 1.0], size=y.shape)
    return hammid.Dataset(
        sample_period=1.0,
        inputs=physical,
        outputs=y,
        input_names=preset.input_names,
        output_names=preset.output_names,
        units={spec["name"]: spec["unit"] for spec in INPUTS} | OUTPUT_UNITS,
        operating_point={spec["name"]: spec["op"] for spec in INPUTS}
        | {name: 0.0 for name in preset.output_names},
    )


def truncate(hammid, data, n: int):
    return hammid.Dataset(
        sample_period=data.sample_period,
        inputs=data.inputs[:n],
        outputs=data.outputs[:n],
        input_names=data.input_names,
        output_names=data.output_names,
        units=dict(data.units),
        operating_point=dict(data.operating_point),
    )


@dataclass(frozen=True)
class Prepared:
    datasets: list[Path]   # dataset files, in pool order
    data: list             # the same datasets in memory, for scoring
    config: Path
    warmup_dataset: Path   # identified once, untimed, before the loop
    warmup_config: Path


def prepare(hammid, preset, workload: Workload, seed: int, workdir: Path) -> Prepared:
    """Generate and write every input file of one workload."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths, datasets = [], []
    for k, seeds in enumerate(dataset_seeds(seed, workload)):
        data = simulate_dataset(hammid, preset, workload.n_samples, seeds, workload.noisy)
        path = workdir / f"dataset_{k}.csv"
        hammid.persistence.save_dataset(path, data)
        paths.append(path)
        datasets.append(data)
    config = workdir / "identify.json"
    config.write_text(json.dumps(workload.config, indent=2, sort_keys=True) + "\n")
    if workload.n_samples == WARMUP_SAMPLES:
        return Prepared(paths, datasets, config, paths[0], config)
    warm = workdir / "warmup.csv"
    hammid.persistence.save_dataset(warm, truncate(hammid, datasets[0], WARMUP_SAMPLES))
    warm_cfg = workdir / "warmup.json"
    warm_cfg.write_text(json.dumps(warmup_config(workload), indent=2, sort_keys=True) + "\n")
    return Prepared(paths, datasets, config, warm, warm_cfg)
