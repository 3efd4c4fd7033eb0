import json
import re
import tracemalloc

from dataclasses import replace

import numpy as np
import pytest

import hammid
from hammid import (
    Dataset, RankDeficiencyError, StageError, estimate, gtaw_pool_model, identify, load_config,
    preprocess, simulate_mimo, structure, validate,
)
from hammid.cli import main

from helpers import BAD_SIGNAL_NAMES, preset_oracle_dataset


def _oracle(n_samples):
    data = preset_oracle_dataset(n_samples=n_samples)
    data.operating_point = {"I_p": 0.0, "V_f": 0.0, "W_b": 0.0, "H_f": 0.0}
    return data


def test_identify_matches_cli_model_file(tmp_path):
    overrides = {"preprocess": {"median_window": 1, "filter_inputs": False}}
    data = _oracle(1070)
    result = identify(data, load_config(None) | overrides)
    assert len(result.searches) == 2 and None not in result.searches
    assert result.report.predicted.shape == (70, 2)

    dataset_path, cfg_path = tmp_path / "oracle.csv", tmp_path / "cfg.json"
    hammid.save_dataset(dataset_path, data)
    cfg_path.write_text(json.dumps(overrides))
    assert main([
        "identify", "--config", str(cfg_path), "--dataset", str(dataset_path),
        "--output-dir", str(tmp_path / "out"),
    ]) == 0
    hammid.save_model(tmp_path / "library.json", result.model)
    assert (tmp_path / "library.json").read_bytes() == (tmp_path / "out" / "model.json").read_bytes()


def _count_layer_calls(monkeypatch):
    """Wrap every layer at its module attribute, as a tracer does; the
    returned dict maps each layer to the (args, kwargs, result) of its calls."""
    layers = [
        (preprocess, "prepare_dataset"),
        (structure, "fold_bank"),
        (structure, "estimate_delays"),
        (structure, "select_structure"),
        (structure, "fit_orders"),
        (estimate, "build_regressor"),
        (estimate, "batch_ls"),
        (estimate, "run_rls"),
        (estimate, "separate_parameters"),
        (validate, "evaluate"),
    ]
    calls = {}
    for module, attr in layers:
        original = getattr(module, attr)

        def counted(*args, _name=attr, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            calls.setdefault(_name, []).append((args, kwargs, result))
            return result

        monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("method", ["batch", "rls"])
def test_layers_called_through_module_attributes(monkeypatch, method):
    # wrappers installed on module attributes (as a tracer does) must see every call
    calls = _count_layer_calls(monkeypatch)
    cfg = load_config(None) | {"n_train": 350, "estimator": {"method": method, "alpha_sq": 1e6}}
    identify(_oracle(400), cfg)
    # batch LS of the searched orders is solved from the bank; RLS reads the rows
    fit = {"rls": {"build_regressor": 2, "run_rls": 2}, "batch": {"fit_orders": 2}}[method]
    assert {name: len(c) for name, c in calls.items()} == {
        "prepare_dataset": 1, "fold_bank": 1, "estimate_delays": 2, "select_structure": 2,
        **fit, "separate_parameters": 2, "evaluate": 1}
    # the training rows are folded once: every scan, search and batch fit reads that bank
    (_, _, bank), = calls["fold_bank"]
    for name in ("estimate_delays", "select_structure"):
        assert all(kwargs["bank"] is bank for _, kwargs, _ in calls[name])
    assert all(args[-1] is bank for args, _, _ in calls.get("fit_orders", []))


def test_fixed_orders_fold_no_bank(monkeypatch):
    calls = _count_layer_calls(monkeypatch)
    orders = [{"n": 5, "channels": [{"p": p, "m": 5, "d": d}] * 2} for p, d in [(2, 1), (4, 3)]]
    identify(_oracle(400), load_config(None) | {"n_train": 350, "fixed_orders": orders})
    assert {name: len(c) for name, c in calls.items()} == {
        "prepare_dataset": 1, "build_regressor": 2, "batch_ls": 2, "separate_parameters": 2,
        "evaluate": 1}


def test_collinear_inputs_named_from_the_bank_fit(monkeypatch):
    # V_f half of I_p on every sample: each V_f column is an exact multiple
    # of an I_p one, so the searched orders' regression is rank deficient
    data = _oracle(400)
    U = np.column_stack([data.inputs[:, 0], 0.5 * data.inputs[:, 0]])
    data = replace(data, inputs=U, outputs=simulate_mimo(gtaw_pool_model(), U))
    fits = []
    fit_orders = structure.fit_orders
    monkeypatch.setattr(structure, "fit_orders",
                        lambda *args: fits.append(args) or fit_orders(*args))
    with pytest.raises(StageError) as raised:
        identify(data, load_config(None) | {"n_train": 350})
    assert raised.value.stage == "estimate"
    # named as batch LS names them on the same rows
    train, orders, s, bank = fits[-1]
    prob = estimate.build_regressor(train, orders, s)
    skip = bank.max_lag - orders.max_lag
    with pytest.raises(RankDeficiencyError) as want:
        estimate.batch_ls(estimate.RegressionProblem(prob.H[skip:], prob.y[skip:],
                                                     prob.column_map))
    assert str(raised.value) == f"estimate: {want.value}"
    assert want.value.offenders and all(dep.startswith("u2^") and ind.startswith("u1^")
                                        for dep, ind in want.value.offenders)


@pytest.mark.parametrize("method", ["batch", "rls"])
def test_one_regression_alive_at_a_time(method):
    # at fixed orders no bank is folded, and each output's [H y] is the
    # largest array of the identify: 17 994 x 30 and 17 992 x 54 doubles
    orders = [{"n": 5, "channels": [{"p": p, "m": 5, "d": d}] * 2} for p, d in [(2, 1), (4, 3)]]
    cfg = load_config(None) | {"n_train": 18_000, "fixed_orders": orders,
                               "estimator": {"method": method,
                                             "alpha_sq": estimate.DEFAULT_ALPHA_SQ}}
    sizes = [(18_000 - o.max_lag) * (o.n_parameters + 1) * 8 for o in (
        estimate.StructureOrders(e["n"], [estimate.ChannelOrders(**c) for c in e["channels"]])
        for e in orders)]
    data = _oracle(20_000)
    tracemalloc.start()
    try:
        identify(data, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # both regressions alive at once would need their sum; a peak below the
    # larger one would mean tracemalloc missed it
    assert max(sizes) <= peak < sum(sizes)


def test_unknown_method_rejected_before_any_work(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("delay scan ran before the estimator method was checked")

    monkeypatch.setattr(structure, "estimate_delays", fail)
    cfg = load_config(None) | {"estimator": {"method": "bogus", "alpha_sq": 1e6}}
    with pytest.raises(StageError, match="^estimate: unknown estimator method 'bogus'$") as info:
        identify(_oracle(400), cfg)
    assert info.value.stage == "estimate"


def _without(data, kind):
    """``data`` with no input series (``kind`` "input") or no output series."""
    inputs, outputs = data.inputs, data.outputs
    input_names, output_names = data.input_names, data.output_names
    if kind == "input":
        inputs, input_names = inputs[:, :0], ()
    else:
        outputs, output_names = outputs[:, :0], ()
    return Dataset(data.sample_period, inputs, outputs, input_names, output_names)


@pytest.mark.parametrize("kind", ["input", "output"])
def test_dataset_without_inputs_or_outputs_rejected_before_any_work(monkeypatch, kind):
    def fail(*args, **kwargs):
        raise AssertionError("the pipeline ran on a dataset without inputs or outputs")

    for module, attr in [(preprocess, "prepare_dataset"), (structure, "fold_bank")]:
        monkeypatch.setattr(module, attr, fail)
    with pytest.raises(StageError, match=f"^estimate: dataset has no {kind} series$") as info:
        identify(_without(_oracle(400), kind), load_config(None))
    assert info.value.stage == "estimate"


@pytest.mark.parametrize("user, key", [
    ({"preprocess": {"median_widow": 1}}, "preprocess.median_widow"),
    ({"n_sample": 500}, "n_sample"),
    ({"structure": {"n_max": 4, "plateau": 0.1}}, "structure.plateau"),
])
def test_unknown_config_key_rejected(tmp_path, user, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(user))
    with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
        load_config(str(path))


@pytest.mark.parametrize("text, message", [
    pytest.param("[1]", ": expected a JSON object, got list$", id="list"),
    pytest.param('{\n  "seed": 3,\n  "n_samples"', ":3: invalid JSON: ", id="truncated"),
])
def test_malformed_config_file_named(tmp_path, text, message):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}{message}"):
        load_config(str(path))


@pytest.mark.parametrize("user, message", [
    pytest.param({"inputs": [3]}, "key 'inputs[0]' must be dict, got int 3", id="non-object"),
    pytest.param({"inputs": [{"name": "u", "low": 0.0, "high": 1.0}]},
                 "missing field 'inputs[0].step'", id="input-no-step"),
    pytest.param({"outputs": [{"unit": "mm"}]}, "missing field 'outputs[0].name'",
                 id="output-no-name"),
])
def test_list_entry_fields_required(tmp_path, user, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(user))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_config(str(path))


def test_list_entry_extra_fields_kept(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "inputs": [{"name": "u", "low": -1.0, "high": 1.0, "step": 0.5, "seed": 9, "note": "x"}],
        "preprocess": {"median_window": 1},
    }))
    cfg = load_config(str(path))
    assert cfg["inputs"][0]["note"] == "x"
    assert cfg["preprocess"] == {"median_window": 1, "filter_inputs": False}


_INPUT = {"name": "u", "low": 0, "high": 1.0, "step": 0.5}  # an integer for a real


@pytest.mark.parametrize("user, message", [
    pytest.param({"validation": {"one_step_ahead": "false"}},
                 "key 'validation.one_step_ahead' must be bool, got str 'false'",
                 id="string-bool"),
    pytest.param({"preprocess": {"median_window": 5.0}},
                 "key 'preprocess.median_window' must be int, got float 5.0",
                 id="real-for-int"),
    pytest.param({"structure": 4}, "key 'structure' must be dict, got int 4",
                 id="scalar-for-section"),
    pytest.param({"inputs": [_INPUT | {"low": "130"}]},
                 "key 'inputs[0].low' must be float, got str '130'", id="entry-string-real"),
    pytest.param({"inputs": [_INPUT | {"seed": 7.0}]},
                 "key 'inputs[0].seed' must be int, got float 7.0", id="entry-real-seed"),
    pytest.param({"inputs": [_INPUT | {"name": 3}]},
                 "key 'inputs[0].name' must be str, got int 3", id="entry-integer-name"),
    pytest.param({"outputs": [{"name": "y"}, {"name": "z", "unit": None}]},
                 "key 'outputs[1].unit' must be str, got NoneType None",
                 id="entry-null-unit"),
])
def test_mistyped_config_value_rejected(tmp_path, user, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(user))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_config(str(path))


def test_repeated_signal_name_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"inputs": [_INPUT, _INPUT]}))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: signal name 'u' is repeated$"):
        load_config(str(path))


@pytest.mark.parametrize("name, reason", BAD_SIGNAL_NAMES.values(), ids=BAD_SIGNAL_NAMES.keys())
def test_bad_signal_name_rejected(tmp_path, name, reason):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"outputs": [{"name": "y"}, {"name": name}]}))
    message = f"{path}: signal name {name!r} {reason}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_config(str(path))


def test_integer_for_real_accepted(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"estimator": {"alpha_sq": 1000000}}))
    assert load_config(str(path))["estimator"]["alpha_sq"] == 1e6
