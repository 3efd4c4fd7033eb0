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

from helpers import BAD_SIGNAL_NAMES, offenders_from_H, preset_oracle_dataset


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


def _collinear_oracle(n_samples):
    """V_f half of I_p on every sample: each V_f column of a regression is an
    exact multiple of an I_p one."""
    data = _oracle(n_samples)
    U = np.column_stack([data.inputs[:, 0], 0.5 * data.inputs[:, 0]])
    return replace(data, inputs=U, outputs=simulate_mimo(gtaw_pool_model(), U))


def _count_layer_calls(monkeypatch):
    """Wrap every layer at its module attribute, as a tracer does; the
    returned dict maps each layer to the (args, kwargs, result) of its calls."""
    layers = [
        (preprocess, "prepare_dataset"),
        (structure, "fold_bank"),
        (structure, "fold_orders"),
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


_FIXED = [{"n": 5, "channels": [{"p": p, "m": 5, "d": d}] * 2} for p, d in [(2, 1), (4, 3)]]
# the preset's true orders: output 0 reads lags up to 6, output 1 up to 8
_TRUE = [{"n": 5, "channels": [{"p": 2, "m": 3, "d": 1}, {"p": 4, "m": 5, "d": 1}]},
         {"n": 5, "channels": [{"p": 2, "m": 5, "d": 3}, {"p": 4, "m": 5, "d": 3}]}]


def _assert_fits_read_the_bank(calls, method, bank):
    """Every fit of ``method`` was solved from ``bank``'s factor: a batch fit
    by ``fit_orders`` on it, an RLS fit on its k rows [R z]."""
    if method == "batch":
        assert all(args[-1] is bank for args, _, _ in calls["fit_orders"])
        return
    for (prob, _), _, _ in calls["run_rls"]:
        assert prob.n_rows == prob.n_columns == len(prob.column_map)
        assert np.array_equal(prob.H, np.triu(prob.H))


@pytest.mark.parametrize("method", ["batch", "rls"])
def test_layers_called_through_module_attributes(monkeypatch, method):
    # wrappers installed on module attributes (as a tracer does) must see every call
    calls = _count_layer_calls(monkeypatch)
    cfg = load_config(None) | {"n_train": 350, "estimator": {"method": method, "alpha_sq": 1e6}}
    identify(_oracle(400), cfg)
    # batch LS and RLS of the searched orders are solved from the bank, and
    # no whole regression is built
    fit = {"rls": {"run_rls": 2}, "batch": {"fit_orders": 2}}[method]
    assert {name: len(c) for name, c in calls.items()} == {
        "prepare_dataset": 1, "fold_bank": 1, "estimate_delays": 2, "select_structure": 2,
        **fit, "separate_parameters": 2, "evaluate": 1}
    # the training rows are folded once: every scan, search and fit reads that bank
    (_, _, bank), = calls["fold_bank"]
    for name in ("estimate_delays", "select_structure"):
        assert all(kwargs["bank"] is bank for _, kwargs, _ in calls[name])
    _assert_fits_read_the_bank(calls, method, bank)


def test_fixed_orders_fold_one_bank(monkeypatch):
    calls = _count_layer_calls(monkeypatch)
    for method in ("batch", "rls"):
        calls.clear()
        identify(_oracle(400), load_config(None) | {
            "n_train": 350, "fixed_orders": _FIXED,
            "estimator": {"method": method, "alpha_sq": 1e6}})
        fit = {"rls": {"run_rls": 2}, "batch": {"fit_orders": 2}}[method]
        assert {name: len(c) for name, c in calls.items()} == {
            "prepare_dataset": 1, "fold_orders": 1, **fit, "separate_parameters": 2,
            "evaluate": 1}
        # one bank of both outputs' regressions, which every fit reads
        (_, _, bank), = calls["fold_orders"]
        assert (bank.max_lag, bank.R.shape) == (8, (68, 68))
        _assert_fits_read_the_bank(calls, method, bank)


def test_streamed_fixed_orders_fit_is_the_whole_regression_fit(monkeypatch):
    # the fit from the fixed orders' bank is that of the whole regression
    # without its first bank.max_lag - orders.max_lag rows, batch or by RLS,
    # with the bank folded in one block and in blocks of 64 rows
    data = preset_oracle_dataset(n_samples=400, noise_std=0.01)
    calls = _count_layer_calls(monkeypatch)
    for fold in (4096, 64):
        monkeypatch.setattr("hammid.estimate._FOLD_ROWS", fold)
        for method in ("batch", "rls"):
            calls.clear()
            identify(data, load_config(None) | {
                "n_train": 350, "fixed_orders": _TRUE,
                "estimator": {"method": method, "alpha_sq": estimate.DEFAULT_ALPHA_SQ}})
            (train, _), _, bank = calls["fold_orders"][0]
            assert (bank.max_lag, bank.R.shape) == (8, (60, 60))
            # a copy: the reference fits below are recorded too
            fits = list(calls["fit_orders" if method == "batch" else "run_rls"])
            for s, (_, _, fit) in enumerate(fits):
                orders = estimate.StructureOrders(_TRUE[s]["n"], [
                    estimate.ChannelOrders(**c) for c in _TRUE[s]["channels"]])
                whole = estimate.build_regressor(train, orders, s)
                skip = bank.max_lag - orders.max_lag
                assert skip == (2, 0)[s]
                rows = estimate.RegressionProblem(whole.H[skip:], whole.y[skip:], ())
                want = (estimate.batch_ls(rows) if method == "batch"
                        else estimate.run_rls(rows))
                assert np.linalg.norm(fit.theta - want.theta) <= \
                    1e-10 * np.linalg.norm(want.theta), (fold, method, s)


def _record_fit_calls(monkeypatch):
    """Record the arguments of every bank fold, bank fit and batch LS call,
    including those that raise."""
    calls = {}
    for module, attr in [(structure, "fold_bank"), (structure, "fold_orders"),
                         (structure, "fit_orders")]:
        def recorded(*args, _name=attr, _original=getattr(module, attr)):
            calls.setdefault(_name, []).append(args)
            return _original(*args)

        monkeypatch.setattr(module, attr, recorded)
    return calls


def test_collinear_inputs_named_from_the_bank_fit(monkeypatch):
    # the searched orders' regression, or that of fixed orders, is rank deficient
    data = _collinear_oracle(400)
    calls = _record_fit_calls(monkeypatch)
    for fold, fixed in [("fold_bank", None), ("fold_orders", _FIXED)]:
        calls.clear()
        with pytest.raises(StageError) as raised:
            identify(data, load_config(None) | {"n_train": 350, "fixed_orders": fixed})
        assert raised.value.stage == "estimate"
        # named as batch LS names them on the bank's rows
        (train, *_), = calls[fold]
        orders, s, bank = calls["fit_orders"][-1]
        prob = estimate.build_regressor(train, orders, s)
        skip = bank.max_lag - orders.max_lag
        with pytest.raises(RankDeficiencyError) as want:
            estimate.batch_ls(estimate.RegressionProblem(prob.H[skip:], prob.y[skip:],
                                                         prob.column_map))
        assert str(raised.value) == f"estimate: {want.value}"
        assert want.value.offenders and all(dep.startswith("u2^") and ind.startswith("u1^")
                                            for dep, ind in want.value.offenders)


@pytest.mark.parametrize("n_samples", [400, 1070])
@pytest.mark.parametrize("fixed", [False, True])
def test_collinear_inputs_named_from_R_as_from_H(monkeypatch, n_samples, fixed):
    # the pairs named from the fit's R factor are those a pivoted QR and the
    # column correlations of the fit's own rows give
    cfg = load_config(None) | {"n_train": n_samples - 50,
                               "fixed_orders": _FIXED if fixed else None}
    calls = _record_fit_calls(monkeypatch)
    with pytest.raises(StageError) as raised:
        identify(_collinear_oracle(n_samples), cfg)
    got = raised.value.__cause__
    assert isinstance(got, RankDeficiencyError)
    # the fit's rows are the bank's, fixed orders or not
    (train, *_), = calls["fold_orders" if fixed else "fold_bank"]
    orders, s, bank = calls["fit_orders"][-1]
    H = estimate.build_regressor(train, orders, s).H[bank.max_lag - orders.max_lag:]
    want = offenders_from_H(H, got.rank, estimate.regression_columns(orders))
    assert len(want) == got.n_columns - got.rank
    assert sorted(got.offenders) == sorted(want)


@pytest.mark.parametrize("method", ["batch", "rls"])
def test_one_regression_alive_at_a_time(method):
    # at fixed orders one bank of both outputs' regressions, 68 columns from
    # row 8, is folded a block of rows at a time; neither output's whole
    # [H y], 17 994 x 30 and 17 992 x 54 doubles, is ever built
    cfg = load_config(None) | {"n_train": 18_000, "fixed_orders": _FIXED,
                               "estimator": {"method": method,
                                             "alpha_sq": estimate.DEFAULT_ALPHA_SQ}}
    sizes = [(18_000 - 6) * 30 * 8, (18_000 - 8) * 54 * 8]
    block = estimate._FOLD_ROWS * 68 * 8
    data = _oracle(20_000)
    tracemalloc.start()
    try:
        identify(data, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole of either regression would exceed the smaller one; a peak
    # below one bank block would mean tracemalloc missed it
    assert block <= peak < min(sizes)


def test_unknown_method_rejected_before_any_work(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("delay scan ran before the estimator method was checked")

    monkeypatch.setattr(structure, "estimate_delays", fail)
    cfg = load_config(None) | {"estimator": {"method": "bogus", "alpha_sq": 1e6}}
    with pytest.raises(StageError, match="^estimate: unknown estimator method 'bogus'$") as info:
        identify(_oracle(400), cfg)
    assert info.value.stage == "estimate"


@pytest.mark.parametrize("user, message", [
    pytest.param({"estimator": {"method": "rls", "alpha_sq": 0.0}},
                 "^estimate: alpha_sq must be positive, got 0.0$", id="rls-alpha_sq-0"),
    pytest.param({"estimator": {"method": "batch", "alpha_sq": -1e6}},
                 "^estimate: alpha_sq must be positive, got -1000000.0$", id="batch-alpha_sq-neg"),
    pytest.param({"validation": {"one_step_ahead": False, "std_ddof": 2}},
                 "^validate: std_ddof must be 0 \\(population\\) or 1 \\(sample\\), got 2$",
                 id="std_ddof-2"),
])
def test_bad_estimator_and_validation_settings_rejected_before_any_work(monkeypatch, user,
                                                                        message):
    def fail(*args, **kwargs):
        raise AssertionError("the pipeline ran before its settings were checked")

    for module, attr in [(preprocess, "prepare_dataset"), (structure, "fold_bank")]:
        monkeypatch.setattr(module, attr, fail)
    with pytest.raises(StageError, match=message):
        identify(_oracle(400), load_config(None) | user)


@pytest.mark.parametrize("fixed, message", [
    pytest.param([{"n": 2, "channels": [{"p": 2, "m": 2, "d": 1}]}] * 2,
                 "orders describe 1 inputs, dataset has 2", id="one-channel"),
    pytest.param(_FIXED + _FIXED[:1], "fixed_orders describe 3 outputs, dataset has 2",
                 id="three-outputs"),
])
def test_fixed_orders_of_another_shape_refused_before_the_fold(monkeypatch, fixed, message):
    def fail(*args, **kwargs):
        raise AssertionError("the bank was folded")

    monkeypatch.setattr(structure, "fold_rows", fail)
    with pytest.raises(StageError, match=f"^structure: {message}$"):
        identify(_oracle(400), load_config(None) | {"n_train": 350, "fixed_orders": fixed})


def test_fixed_orders_too_long_for_the_series_named_by_the_bank():
    # the bank of _FIXED holds 68 columns from row 8: 75 training samples are
    # one too few
    cfg = load_config(None) | {"n_train": 75, "fixed_orders": _FIXED}
    with pytest.raises(StageError, match="^structure: series of length 75 too short for 68 "
                                         "bank columns from row 8$"):
        identify(_oracle(400), cfg)
    identify(_oracle(400), cfg | {"n_train": 76})


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
