"""Command-line front end: parses arguments, calls the library, writes files.

Subcommands::

    hammid excite    --config cfg.json --output-dir out/
    hammid simulate  --model model.json --inputs a.txt b.txt --output-dir out/
    hammid identify  --config cfg.json --dataset data.csv --output-dir out/
    hammid validate  --model model.json --dataset data.csv --output-dir out/
    hammid preset    --name paper-gtaw --output model.json

Data acquisition is external: ``excite`` produces the input schedule an
experimenter would apply, and ``identify`` consumes whatever dataset is
supplied (recorded or simulated).  Every run writes the fully resolved
configuration next to its outputs, and identical config plus dataset give
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import persistence, preprocess, structure, validate
from .excitation import AmplitudeGrid, generate_excitation
from .model import Dataset, preset_model, simulate_mimo
from .pipeline import identify, load_config, stage


def _write_resolved_config(cfg: dict, outdir: Path) -> None:
    (outdir / "resolved_config.json").write_text(
        json.dumps(cfg, indent=2, sort_keys=True) + "\n"
    )


# ---------------------------------------------------------------------------
# Commands

def cmd_excite(cfg: dict, outdir: Path) -> None:
    # every schedule is built before any is written, so a bad entry leaves no file
    schedules = {
        spec["name"]: generate_excitation(
            AmplitudeGrid(low=spec["low"], high=spec["high"], step=spec["step"]),
            cfg["n_samples"], seed=spec["seed"], hold=cfg["hold"],
        )
        for spec in cfg["inputs"]
    }
    for name, series in schedules.items():
        persistence.save_series(outdir / f"excitation_{name}.txt", series, name=name)
    _write_resolved_config(cfg, outdir)


def cmd_simulate(
    model_path: str,
    input_paths: list[str],
    outdir: Path,
    dataset_out: str | None,
    cfg: dict,
) -> None:
    model = persistence.load_model(model_path)
    if len(input_paths) != model.n_inputs:
        raise ValueError(
            f"model expects {model.n_inputs} input files, got {len(input_paths)}"
        )
    series, names = zip(*(persistence.load_series(p) for p in input_paths))
    for k, (name, want) in enumerate(zip(names, model.input_names), start=1):
        if name != want:
            raise ValueError(
                f"input file {k} carries signal {name!r}, model input {k} is {want!r}"
            )
    # inputs arrive at physical scale; the model works on deviations
    deviations = [
        s - model.operating_point.get(name, 0.0) for s, name in zip(series, names)
    ]
    outputs = simulate_mimo(model, deviations)
    persistence.save_trace(outdir / "simulated_outputs.txt", model.output_names, outputs)
    if dataset_out is not None:
        units = {s["name"]: s.get("unit", "") for s in cfg["inputs"] + cfg["outputs"]}
        data = Dataset(
            sample_period=cfg["sample_period"],
            inputs=np.column_stack(series),
            outputs=outputs,
            input_names=tuple(model.input_names),
            output_names=tuple(model.output_names),
            units={k: v for k, v in units.items() if v},
            operating_point={
                name: model.operating_point[name]
                for name in model.input_names
                if name in model.operating_point
            } | {name: 0.0 for name in model.output_names},
        )
        persistence.save_dataset(dataset_out, data)


def _write_validation(report, output_names, outdir: Path) -> None:
    (outdir / "validation_report.txt").write_text(validate.format_validation_report(report))
    for s, name in enumerate(output_names):
        (outdir / f"validation_trace_{name}.txt").write_text(
            validate.format_trace(report, s)
        )


def cmd_identify(cfg: dict, dataset_path: str, outdir: Path) -> None:
    with stage("load"):
        data = persistence.load_dataset(dataset_path)
    result = identify(data, cfg)
    persistence.save_model(outdir / "model.json", result.model)
    (outdir / "structure_report.txt").write_text("\n".join(
        f"structure for {name}: fixed by configuration\n" if search is None
        else structure.format_search_report(search, name)
        for search, name in zip(result.searches, data.output_names)
    ))
    _write_validation(result.report, data.output_names, outdir)
    _write_resolved_config(cfg, outdir)


def cmd_validate(
    model_path: str, dataset_path: str, outdir: Path, vcfg: dict, one_step_ahead: bool
) -> None:
    model = persistence.load_model(model_path)
    data = persistence.load_dataset(dataset_path)
    # deviation scale, without median filtering: operating points where
    # declared, means otherwise
    deviations, _ = preprocess.prepare_dataset(data, median_window=1)
    report = validate.evaluate(model, deviations, std_ddof=vcfg["std_ddof"],
                               one_step_ahead=one_step_ahead or vcfg["one_step_ahead"])
    _write_validation(report, data.output_names, outdir)


def cmd_preset(name: str, out_path: str) -> None:
    persistence.save_model(out_path, preset_model(name))


# ---------------------------------------------------------------------------
# Argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hammid",
        description="Multivariable Hammerstein model identification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file (defaults are documented)")
        p.add_argument("--seed", type=int, help="override the base excitation seed")
        p.add_argument("--output-dir", default=".", help="directory for artifacts")

    p = sub.add_parser("excite", help="generate pseudo-random excitation schedules")
    add_common(p)

    p = sub.add_parser("identify", help="identify a model from a dataset file")
    add_common(p)
    p.add_argument("--dataset", required=True, help="dataset file to identify from")

    p = sub.add_parser("simulate", help="free-run a model file on input series files")
    add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--inputs", nargs="+", required=True, help="one series file per input")
    p.add_argument("--dataset-out", help="also write a ready-to-identify dataset file")

    p = sub.add_parser("validate", help="evaluate a model file against a dataset")
    add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--one-step-ahead", action="store_true",
                   help="predict from measured past outputs instead of free-run "
                        "(default: the config's validation.one_step_ahead)")

    p = sub.add_parser("preset", help="write a built-in model file")
    p.add_argument("--name", default="paper-gtaw")
    p.add_argument("--output", default="model.json")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "preset":
            cmd_preset(args.name, args.output)
            return 0
        cfg = load_config(args.config, args.seed)
        outdir = Path(args.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        if args.command == "excite":
            cmd_excite(cfg, outdir)
        elif args.command == "identify":
            cmd_identify(cfg, args.dataset, outdir)
        elif args.command == "simulate":
            cmd_simulate(args.model, args.inputs, outdir, args.dataset_out, cfg)
        elif args.command == "validate":
            cmd_validate(args.model, args.dataset, outdir, cfg["validation"], args.one_step_ahead)
        return 0
    except Exception as e:  # noqa: BLE001 - single reporting point for the CLI
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
