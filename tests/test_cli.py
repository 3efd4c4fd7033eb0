import json

import numpy as np
import pytest

from hammid import (
    Dataset,
    HammersteinChannel,
    LinearDynamics,
    MimoHammersteinModel,
    StaticNonlinearity,
    gtaw_pool_model,
    load_dataset,
    load_model,
    load_series,
    save_dataset,
    save_model,
    simulate_mimo,
)
from hammid.cli import main

from helpers import (
    BAD_SIGNAL_NAMES,
    default_excitation,
    expected_preset_theta,
    preset_oracle_dataset,
    recursion_oracle,
)

_INPUT = {"name": "u", "low": 0.0, "high": 1.0, "step": 0.5}
FIXED_PRESET_ORDERS = [
    {"n": 5, "channels": [{"p": 2, "m": 3, "d": 1}, {"p": 4, "m": 5, "d": 1}]},
    {"n": 5, "channels": [{"p": 2, "m": 5, "d": 3}, {"p": 4, "m": 5, "d": 3}]},
]


def _write_oracle_dataset(path, n_samples=1070):
    data = preset_oracle_dataset(n_samples=n_samples)
    data.operating_point = {"I_p": 0.0, "V_f": 0.0, "W_b": 0.0, "H_f": 0.0}
    save_dataset(path, data)
    return data


def _unstable_model():
    """Hand-built 2 x 2 model, first order with a pole at 1.002 on each output,
    named like the oracle dataset."""
    def channel(d):
        return HammersteinChannel(StaticNonlinearity(()), LinearDynamics((-1.002,), (0.01,), d))

    return MimoHammersteinModel(
        channels=((channel(1), channel(1)), (channel(3), channel(3))),
        input_names=("I_p", "V_f"),
        output_names=("W_b", "H_f"),
    )


UNSTABLE_WARNING = "warning: identified model is unstable (max pole radius 1.002)"


class TestExcite:
    def test_default_config_writes_grid_schedules(self, tmp_path):
        assert main(["excite", "--output-dir", str(tmp_path)]) == 0
        ip, name = load_series(tmp_path / "excitation_I_p.txt")
        assert name == "I_p"
        assert len(ip) == 1070
        assert set(ip) <= set(130.0 + 2.0 * np.arange(21))
        vf, _ = load_series(tmp_path / "excitation_V_f.txt")
        assert set(vf) <= set(4.0 + np.arange(7))
        assert (tmp_path / "resolved_config.json").exists()

    def test_same_seed_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(["excite", "--output-dir", str(d1)]) == 0
        assert main(["excite", "--output-dir", str(d2)]) == 0
        assert (d1 / "excitation_I_p.txt").read_bytes() == (d2 / "excitation_I_p.txt").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        main(["excite", "--output-dir", str(d1)])
        main(["excite", "--output-dir", str(d2), "--seed", "77"])
        assert (d1 / "excitation_I_p.txt").read_bytes() != (d2 / "excitation_I_p.txt").read_bytes()

    def test_zero_samples_fails(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_samples": 0}))
        assert main(["excite", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 1
        assert "n_samples" in capsys.readouterr().err


    @pytest.mark.parametrize("text, message", [
        pytest.param("[1]\n", ": expected a JSON object, got list\n", id="list"),
        pytest.param('{"n_samples":\n', ":2: invalid JSON: ", id="truncated"),
    ])
    def test_malformed_config_file_named_no_directory(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "a.json"
        cfg.write_text(text)
        outdir = tmp_path / "out"
        assert main(["excite", "--config", str(cfg), "--output-dir", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}{message}")
        assert not outdir.exists()

    def test_input_entry_missing_field_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"inputs": [{"name": "u", "high": 1.0, "step": 0.5}]}))
        assert main(["excite", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: missing field 'inputs[0].low'\n"

    @pytest.mark.parametrize("field, value, message", [
        ("low", "130", "'inputs[0].low' must be float, got str '130'"),
        ("seed", "7", "'inputs[0].seed' must be int, got str '7'"),
        ("name", 3, "'inputs[0].name' must be str, got int 3"),
    ])
    def test_mistyped_input_entry_named_no_directory(self, tmp_path, capsys, field, value,
                                                       message):
        entry = {"name": "u", "low": 130.0, "high": 170.0, "step": 2.0} | {field: value}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"inputs": [entry]}))
        outdir = tmp_path / "out"
        assert main(["excite", "--config", str(cfg), "--output-dir", str(outdir)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: key {message}\n"
        assert not outdir.exists()


    @pytest.mark.parametrize("user, args, message", [
        pytest.param({"inputs": [_INPUT, _INPUT | {"name": "v", "step": 0.0}]}, [],
                     "step must be > 0, got 0.0", id="second-step"),
        pytest.param({}, ["--seed", "2147483646"],
                     "seed must lie in [1, 2147483646], got 2147483647", id="second-seed"),
    ])
    def test_bad_second_input_writes_no_schedule(self, tmp_path, capsys, user, args, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(user))
        outdir = tmp_path / "out"
        assert main(["excite", "--config", str(cfg), "--output-dir", str(outdir), *args]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(outdir.glob("excitation_*.txt"))

    @pytest.mark.parametrize("name, reason", BAD_SIGNAL_NAMES.values(),
                             ids=BAD_SIGNAL_NAMES.keys())
    def test_bad_signal_name_no_directory(self, tmp_path, capsys, name, reason):
        # the name would become part of a schedule's file name
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"inputs": [_INPUT, _INPUT | {"name": name}]}))
        outdir = tmp_path / "out"
        assert main(["excite", "--config", str(cfg), "--output-dir", str(outdir)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: signal name {name!r} {reason}\n"
        assert not outdir.exists()


class TestPreset:
    def test_writes_loadable_model(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["preset", "--name", "paper-gtaw", "--output", str(out)]) == 0
        assert load_model(out).channels == gtaw_pool_model().channels

    def test_unknown_name_lists_presets(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["preset", "--name", "bogus", "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "paper-gtaw" in err

    def test_repeat_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["preset", "--output", str(a)])
        main(["preset", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestSimulate:
    def _write_inputs(self, tmp_path, ip_values, vf_values):
        from hammid import save_series

        ip = tmp_path / "ip.txt"
        vf = tmp_path / "vf.txt"
        save_series(ip, ip_values, name="I_p")
        save_series(vf, vf_values, name="V_f")
        return ip, vf

    def test_operating_point_inputs_give_zero(self, tmp_path):
        model_path = tmp_path / "m.json"
        main(["preset", "--output", str(model_path)])
        ip, vf = self._write_inputs(tmp_path, np.full(40, 150.0), np.full(40, 7.0))
        assert main([
            "simulate", "--model", str(model_path), "--inputs", str(ip), str(vf),
            "--output-dir", str(tmp_path),
        ]) == 0
        lines = (tmp_path / "simulated_outputs.txt").read_text().strip().splitlines()
        table = np.array([[float(c) for c in ln.split(",")] for ln in lines[2:]])
        assert np.all(table[:, 1:] == 0.0)

    def test_step_inputs_match_oracle_recursion(self, tmp_path):
        model_path = tmp_path / "m.json"
        main(["preset", "--output", str(model_path)])
        # one grid step above the operating point on both inputs
        ip, vf = self._write_inputs(tmp_path, np.full(20, 152.0), np.full(20, 8.0))
        main([
            "simulate", "--model", str(model_path), "--inputs", str(ip), str(vf),
            "--output-dir", str(tmp_path),
        ])
        lines = (tmp_path / "simulated_outputs.txt").read_text().strip().splitlines()
        table = np.array([[float(c) for c in ln.split(",")] for ln in lines[2:]])
        from helpers import oracle_mimo

        ref = oracle_mimo([np.full(20, 2.0), np.full(20, 1.0)])
        np.testing.assert_allclose(table[:, 1], ref[0], atol=1e-13)
        np.testing.assert_allclose(table[:, 2], ref[1], atol=1e-13)

    def test_missing_input_file_fails(self, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        main(["preset", "--output", str(model_path)])
        assert main([
            "simulate", "--model", str(model_path),
            "--inputs", str(tmp_path / "nope1.txt"), str(tmp_path / "nope2.txt"),
            "--output-dir", str(tmp_path),
        ]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_non_finite_input_names_line(self, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        main(["preset", "--output", str(model_path)])
        ip, vf = self._write_inputs(tmp_path, np.full(5, 150.0), np.full(5, 7.0))
        ip.write_text(ip.read_text().replace("2,150.0", "2,nan"))  # file line 6
        outdir = tmp_path / "out"
        assert main([
            "simulate", "--model", str(model_path), "--inputs", str(ip), str(vf),
            "--output-dir", str(outdir),
        ]) == 1
        assert f"{ip}:6: non-finite value" in capsys.readouterr().err
        assert not (outdir / "simulated_outputs.txt").exists()

    def test_non_finite_model_coefficient_fails(self, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        main(["preset", "--output", str(model_path)])
        doc = json.loads(model_path.read_text())
        doc["channels"][0][0]["b"][0] = "NaN"
        model_path.write_text(json.dumps(doc).replace('"NaN"', "NaN"))
        ip, vf = self._write_inputs(tmp_path, np.full(5, 150.0), np.full(5, 7.0))
        outdir = tmp_path / "out"
        assert main([
            "simulate", "--model", str(model_path), "--inputs", str(ip), str(vf),
            "--output-dir", str(outdir),
        ]) == 1
        assert f"{model_path}: non-finite number: NaN" in capsys.readouterr().err
        assert not (outdir / "simulated_outputs.txt").exists()

    @pytest.mark.parametrize("files, message", [
        pytest.param([(5, "I_p")], "model expects 2 input files, got 1", id="one-file"),
        pytest.param([(5, "I_p"), (5, "V_f"), (5, "x")], "model expects 2 input files, got 3",
                     id="three-files"),
        pytest.param([(5, "I_p"), (4, "V_f")], "input series lengths differ: [4, 5]",
                     id="lengths"),
        # files are matched to model inputs by position, so each must carry that input
        pytest.param([(5, "V_f"), (5, "I_p")],
                     "input file 1 carries signal 'V_f', model input 1 is 'I_p'", id="swapped"),
    ])
    def test_mismatched_input_files_fail(self, tmp_path, capsys, files, message):
        from hammid import save_series

        model_path = tmp_path / "m.json"
        main(["preset", "--output", str(model_path)])
        inputs = []
        for k, (n, name) in enumerate(files):
            inputs.append(str(tmp_path / f"u{k}.txt"))
            save_series(inputs[-1], np.full(n, 150.0), name=name)
        outdir = tmp_path / "out"
        assert main([
            "simulate", "--model", str(model_path), "--inputs", *inputs,
            "--output-dir", str(outdir), "--dataset-out", str(outdir / "dataset.csv"),
        ]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (outdir / "simulated_outputs.txt").exists()
        assert not (outdir / "dataset.csv").exists()

    def test_dataset_out_is_identifiable(self, tmp_path):
        model_path = tmp_path / "m.json"
        main(["preset", "--output", str(model_path)])
        rng = np.random.default_rng(80)
        ip, vf = self._write_inputs(
            tmp_path,
            150.0 + rng.integers(-10, 11, 60) * 2.0,
            7.0 + rng.integers(-3, 4, 60) * 1.0,
        )
        out = tmp_path / "oracle.csv"
        main([
            "simulate", "--model", str(model_path), "--inputs", str(ip), str(vf),
            "--output-dir", str(tmp_path), "--dataset-out", str(out),
        ])
        data = load_dataset(out)
        assert data.n_samples == 60
        assert data.operating_point["I_p"] == 150.0
        assert data.operating_point["W_b"] == 0.0


class TestIdentify:
    def test_oracle_round_trip_with_fixed_orders(self, tmp_path):
        dataset_path = tmp_path / "oracle.csv"
        _write_oracle_dataset(dataset_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "preprocess": {"median_window": 1},
            "fixed_orders": FIXED_PRESET_ORDERS,
        }))
        outdir = tmp_path / "out"
        assert main([
            "identify", "--config", str(cfg_path),
            "--dataset", str(dataset_path), "--output-dir", str(outdir),
        ]) == 0
        identified = load_model(outdir / "model.json")
        reference = gtaw_pool_model()
        for s in (0, 1):
            for j in (0, 1):
                got = identified.channels[s][j]
                want = reference.channels[s][j]
                np.testing.assert_allclose(got.dynamics.a, want.dynamics.a, rtol=1e-4)
                np.testing.assert_allclose(got.dynamics.b, want.dynamics.b, rtol=1e-4)
                np.testing.assert_allclose(
                    got.nonlinearity.coeffs, want.nonlinearity.coeffs, rtol=1e-4
                )
        report = (outdir / "validation_report.txt").read_text()
        assert "free-run" in report
        assert (outdir / "structure_report.txt").read_text().count("fixed by configuration") == 2

    def test_short_dataset_names_shortfall(self, tmp_path, capsys):
        dataset_path = tmp_path / "short.csv"
        _write_oracle_dataset(dataset_path, n_samples=40)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_train": 30}))
        assert main([
            "identify", "--config", str(cfg_path),
            "--dataset", str(dataset_path), "--output-dir", str(tmp_path / "out"),
        ]) == 1
        # max_lag 10 against 30 training samples is named before a bank is folded
        assert capsys.readouterr().err == \
            "error: structure: max_lag must lie in [0, N/4), got 10\n"

    def test_constant_input_named(self, tmp_path, capsys):
        dataset_path = tmp_path / "oracle.csv"
        data = preset_oracle_dataset(n_samples=1070)
        data.inputs[:, 1] = 7.0
        save_dataset(dataset_path, data)
        assert main([
            "identify", "--dataset", str(dataset_path), "--output-dir", str(tmp_path / "out"),
        ]) == 1
        assert capsys.readouterr().err == "error: structure: constant input series 'V_f'\n"

    @pytest.mark.parametrize("kind", ["input", "output"])
    def test_dataset_without_inputs_or_outputs_named(self, tmp_path, capsys, kind):
        # save_dataset writes an empty '# inputs:' or '# outputs:' line for it
        data = preset_oracle_dataset(n_samples=1070)
        if kind == "input":
            data = Dataset(1.0, data.inputs[:, :0], data.outputs, (), data.output_names)
        else:
            data = Dataset(1.0, data.inputs, data.outputs[:, :0], data.input_names, ())
        save_dataset(tmp_path / "data.csv", data)
        assert main([
            "identify", "--dataset", str(tmp_path / "data.csv"),
            "--output-dir", str(tmp_path / "out"),
        ]) == 1
        assert capsys.readouterr().err == f"error: estimate: dataset has no {kind} series\n"

    @pytest.mark.parametrize("stage, cfg, dataset", [
        ("load", {}, "missing.csv"),
        ("preprocess", {"preprocess": {"median_window": 4}}, "oracle.csv"),
        ("split", {"n_train": 120}, "oracle.csv"),
        ("structure", {"fixed_orders": FIXED_PRESET_ORDERS[:1]}, "oracle.csv"),
        ("estimate", {"estimator": {"method": "bogus"}}, "oracle.csv"),
    ])
    def test_error_names_stage(self, tmp_path, capsys, stage, cfg, dataset):
        _write_oracle_dataset(tmp_path / "oracle.csv", n_samples=120)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_train": 100} | cfg))
        assert main([
            "identify", "--config", str(cfg_path),
            "--dataset", str(tmp_path / dataset), "--output-dir", str(tmp_path / "out"),
        ]) == 1
        assert capsys.readouterr().err.startswith(f"error: {stage}: ")

    @pytest.mark.parametrize("key", ["slash", "backslash"])
    def test_bad_dataset_signal_name_writes_nothing(self, tmp_path, capsys, key):
        # the output name would become part of its validation trace's file name
        name, reason = BAD_SIGNAL_NAMES[key]
        dataset_path = tmp_path / "oracle.csv"
        _write_oracle_dataset(dataset_path)
        dataset_path.write_text(dataset_path.read_text().replace("W_b", name))
        outdir = tmp_path / "out"
        assert main([
            "identify", "--dataset", str(dataset_path), "--output-dir", str(outdir),
        ]) == 1
        assert capsys.readouterr().err == (
            f"error: load: {dataset_path}:6: signal name {name!r} {reason}\n"
        )
        assert not list(outdir.iterdir())

    @pytest.mark.parametrize("key", ["plateau_threshold", "convergence_floor"])
    def test_negative_search_threshold_fails_in_structure_stage(self, tmp_path, capsys, key):
        _write_oracle_dataset(tmp_path / "oracle.csv")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"structure": {key: -0.5}}))
        assert main([
            "identify", "--config", str(cfg_path),
            "--dataset", str(tmp_path / "oracle.csv"), "--output-dir", str(tmp_path / "out"),
        ]) == 1
        assert capsys.readouterr().err == f"error: structure: {key} must be >= 0, got -0.5\n"

    @pytest.mark.parametrize("fixed, message", [
        pytest.param([{"n": 2}], "missing field 'fixed_orders[0].channels'", id="no-channels"),
        pytest.param([{"n": 2, "channels": [{"p": 1, "m": 1}]}],
                     "missing field 'fixed_orders[0].channels[0].d'", id="no-delay"),
    ])
    def test_fixed_orders_entry_missing_field_named(self, tmp_path, capsys, fixed, message):
        _write_oracle_dataset(tmp_path / "oracle.csv", n_samples=120)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_train": 100, "fixed_orders": fixed}))
        outdir = tmp_path / "out"
        assert main([
            "identify", "--config", str(cfg_path),
            "--dataset", str(tmp_path / "oracle.csv"), "--output-dir", str(outdir),
        ]) == 1
        assert capsys.readouterr().err == f"error: {cfg_path}: {message}\n"
        assert not outdir.exists()

    @pytest.mark.parametrize("channel, entry, message", [
        pytest.param({"p": 2.7}, {}, "'fixed_orders[0].channels[0].p' must be int, got float 2.7",
                     id="real-degree"),
        pytest.param({"d": True}, {}, "'fixed_orders[0].channels[0].d' must be int, got bool True",
                     id="bool-delay"),
        pytest.param({}, {"n": "5"}, "'fixed_orders[0].n' must be int, got str '5'",
                     id="string-order"),
        pytest.param({}, {"channels": 3}, "'fixed_orders[0].channels' must be list, got int 3",
                     id="scalar-channels"),
    ])
    def test_fixed_orders_mistyped_field_named(self, tmp_path, capsys, channel, entry, message):
        first = FIXED_PRESET_ORDERS[0]
        fixed = [{"n": first["n"], "channels": [first["channels"][0] | channel,
                                                first["channels"][1]]} | entry,
                 FIXED_PRESET_ORDERS[1]]
        _write_oracle_dataset(tmp_path / "oracle.csv", n_samples=120)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_train": 100, "fixed_orders": fixed}))
        outdir = tmp_path / "out"
        assert main([
            "identify", "--config", str(cfg_path),
            "--dataset", str(tmp_path / "oracle.csv"), "--output-dir", str(outdir),
        ]) == 1
        assert capsys.readouterr().err == f"error: {cfg_path}: key {message}\n"
        assert not outdir.exists()

    def test_std_ddof_out_of_range_fails_in_validate_stage(self, tmp_path, capsys):
        _write_oracle_dataset(tmp_path / "oracle.csv", n_samples=400)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "preprocess": {"median_window": 1},
            "fixed_orders": FIXED_PRESET_ORDERS,
            "n_train": 350,
            "validation": {"std_ddof": -3},
        }))
        assert main([
            "identify", "--config", str(cfg_path),
            "--dataset", str(tmp_path / "oracle.csv"), "--output-dir", str(tmp_path / "out"),
        ]) == 1
        assert capsys.readouterr().err == (
            "error: validate: std_ddof must be 0 (population) or 1 (sample), got -3\n"
        )

    def test_linear_synthetic_reports_degree_one(self, tmp_path):
        rng = np.random.default_rng(81)
        u = rng.integers(-4, 5, 800) * 0.5
        y = recursion_oracle([], [1.0, 0.4], 1, [-0.6, 0.08], u)
        data = Dataset(
            sample_period=1.0,
            inputs=u.reshape(-1, 1),
            outputs=np.asarray(y).reshape(-1, 1),
            input_names=("u",),
            output_names=("y",),
            operating_point={"u": 0.0, "y": 0.0},
        )
        dataset_path = tmp_path / "lin.csv"
        save_dataset(dataset_path, data)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "preprocess": {"median_window": 1},
            "n_train": 700,
            "structure": {"n_max": 4, "m_max": 4, "p_max": 3},
            "delay": {"max_lag": 6},
        }))
        outdir = tmp_path / "out"
        assert main([
            "identify", "--config", str(cfg_path),
            "--dataset", str(dataset_path), "--output-dir", str(outdir),
        ]) == 0
        report = (outdir / "structure_report.txt").read_text()
        assert " p=1 " in report.splitlines()[-1] or "p=1" in report.split("selected:")[1]
        identified = load_model(outdir / "model.json")
        assert identified.channels[0][0].nonlinearity.degree == 1

    def test_full_pipeline_determinism(self, tmp_path):
        dataset_path = tmp_path / "oracle.csv"
        _write_oracle_dataset(dataset_path, n_samples=400)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "preprocess": {"median_window": 1},
            "fixed_orders": FIXED_PRESET_ORDERS,
            "n_train": 350,
        }))
        outs = []
        for sub in ("a", "b"):
            outdir = tmp_path / sub
            assert main([
                "identify", "--config", str(cfg_path),
                "--dataset", str(dataset_path), "--output-dir", str(outdir),
            ]) == 0
            outs.append(outdir)
        for name in ("model.json", "structure_report.txt", "validation_report.txt",
                     "validation_trace_W_b.txt", "resolved_config.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_unstable_model_flagged(self, tmp_path):
        # exact data of an unstable model, identified at its own orders
        model = _unstable_model()
        u = np.column_stack(default_excitation(1070))
        dataset_path = tmp_path / "unstable.csv"
        save_dataset(dataset_path, Dataset(
            1.0, u, simulate_mimo(model, u), model.input_names, model.output_names,
            operating_point={"I_p": 0.0, "V_f": 0.0, "W_b": 0.0, "H_f": 0.0},
        ))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "preprocess": {"median_window": 1},
            "fixed_orders": [
                {"n": 1, "channels": [{"p": 1, "m": 0, "d": d}, {"p": 1, "m": 0, "d": d}]}
                for d in (1, 3)
            ],
        }))
        outdir = tmp_path / "out"
        assert main([
            "identify", "--config", str(cfg_path),
            "--dataset", str(dataset_path), "--output-dir", str(outdir),
        ]) == 0
        lines = (outdir / "validation_report.txt").read_text().splitlines()
        assert lines[-1] == UNSTABLE_WARNING
        assert [line for line in lines if line.startswith("warning")] == [UNSTABLE_WARNING]


class TestValidateCommand:
    def test_reports_written(self, tmp_path):
        model_path = tmp_path / "m.json"
        main(["preset", "--output", str(model_path)])
        dataset_path = tmp_path / "oracle.csv"
        _write_oracle_dataset(dataset_path, n_samples=120)
        outdir = tmp_path / "out"
        assert main([
            "validate", "--model", str(model_path), "--dataset", str(dataset_path),
            "--output-dir", str(outdir),
        ]) == 0
        text = (outdir / "validation_report.txt").read_text()
        assert "free-run" in text
        assert "warning" not in text
        trace = (outdir / "validation_trace_H_f.txt").read_text()
        assert trace.splitlines()[0].startswith("index actual predicted error")

    def test_traces_written_in_blocks_are_the_whole_traces(self, tmp_path, monkeypatch):
        model_path = tmp_path / "m.json"
        main(["preset", "--output", str(model_path)])
        dataset_path = tmp_path / "oracle.csv"
        _write_oracle_dataset(dataset_path, n_samples=120)
        texts = []
        # one block of 120 rows, then 17 blocks of 7 rows and a last one of 1
        for rows in (4096, 7):
            monkeypatch.setattr("hammid.persistence._WRITE_ROWS", rows)
            outdir = tmp_path / f"out-{rows}"
            assert main(["validate", "--model", str(model_path), "--dataset",
                         str(dataset_path), "--output-dir", str(outdir)]) == 0
            texts.append([(outdir / f"validation_trace_{name}.txt").read_bytes()
                          for name in ("W_b", "H_f")])
        assert texts[0] == texts[1]
        assert texts[0][0].count(b"\n") == 121

    @pytest.mark.parametrize("flags", [[], ["--one-step-ahead"]], ids=["free-run", "one-step"])
    def test_unstable_model_flagged(self, tmp_path, flags):
        model_path = tmp_path / "m.json"
        save_model(model_path, _unstable_model())
        dataset_path = tmp_path / "oracle.csv"
        _write_oracle_dataset(dataset_path, n_samples=120)
        outdir = tmp_path / "out"
        assert main([
            "validate", "--model", str(model_path), "--dataset", str(dataset_path),
            "--output-dir", str(outdir), *flags,
        ]) == 0
        text = (outdir / "validation_report.txt").read_text()
        assert text.endswith(f"\n{UNSTABLE_WARNING}\n")
        assert text.count("warning") == 1

    def test_one_step_ahead_flag(self, tmp_path):
        model_path = tmp_path / "m.json"
        main(["preset", "--output", str(model_path)])
        dataset_path = tmp_path / "oracle.csv"
        _write_oracle_dataset(dataset_path, n_samples=120)
        outdir = tmp_path / "out"
        assert main([
            "validate", "--model", str(model_path), "--dataset", str(dataset_path),
            "--output-dir", str(outdir), "--one-step-ahead",
        ]) == 0
        assert "one-step-ahead" in (outdir / "validation_report.txt").read_text()

    def test_one_step_ahead_from_config(self, tmp_path):
        model_path = tmp_path / "m.json"
        main(["preset", "--output", str(model_path)])
        dataset_path = tmp_path / "oracle.csv"
        _write_oracle_dataset(dataset_path, n_samples=120)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"validation": {"one_step_ahead": True}}))
        outdir = tmp_path / "out"
        assert main([
            "validate", "--model", str(model_path), "--dataset", str(dataset_path),
            "--config", str(cfg_path), "--output-dir", str(outdir),
        ]) == 0
        header = (outdir / "validation_report.txt").read_text().splitlines()[0]
        assert "one-step-ahead" in header

    def test_dataset_in_another_input_order_fails(self, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        main(["preset", "--output", str(model_path)])
        data = preset_oracle_dataset(n_samples=120)
        dataset_path = tmp_path / "reordered.csv"
        save_dataset(dataset_path, Dataset(
            sample_period=1.0, inputs=data.inputs[:, ::-1], outputs=data.outputs,
            input_names=("V_f", "I_p"), output_names=data.output_names,
        ))
        outdir = tmp_path / "out"
        assert main([
            "validate", "--model", str(model_path), "--dataset", str(dataset_path),
            "--output-dir", str(outdir),
        ]) == 1
        assert capsys.readouterr().err == (
            "error: dataset inputs ['V_f', 'I_p'] differ from the model's ['I_p', 'V_f']\n"
        )
        assert not (outdir / "validation_report.txt").exists()

    def test_std_ddof_out_of_range_fails(self, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        main(["preset", "--output", str(model_path)])
        dataset_path = tmp_path / "oracle.csv"
        _write_oracle_dataset(dataset_path, n_samples=70)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"validation": {"std_ddof": 70}}))
        outdir = tmp_path / "out"
        assert main([
            "validate", "--model", str(model_path), "--dataset", str(dataset_path),
            "--config", str(cfg_path), "--output-dir", str(outdir),
        ]) == 1
        assert capsys.readouterr().err == (
            "error: std_ddof must be 0 (population) or 1 (sample), got 70\n"
        )
        assert not (outdir / "validation_report.txt").exists()
