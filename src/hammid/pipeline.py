"""The identification pipeline as one library call, ``identify``.

Each stage runs inside :func:`stage`, which labels any failure with the
stage's name.  Every layer is called through its module attribute
(``structure.estimate_delays``, never a name imported from the module), so
a wrapper installed on that attribute, such as a tracer's, sees every call.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from dataclasses import dataclass

from . import estimate, preprocess, structure, validate
from .model import Dataset, MimoHammersteinModel, check_signal_names
from .persistence import FileFormatError, check_entry, check_type, read_json_object

DEFAULT_CONFIG: dict = {
    "sample_period": 1.0,
    "n_samples": 1070,
    "seed": 1,
    "hold": 1,
    "inputs": [
        {"name": "I_p", "unit": "A", "low": 130.0, "high": 170.0, "step": 2.0},
        {"name": "V_f", "unit": "cm/s", "low": 4.0, "high": 10.0, "step": 1.0},
    ],
    "outputs": [
        {"name": "W_b", "unit": "mm"},
        {"name": "H_f", "unit": "mm"},
    ],
    "preprocess": {"median_window": 5, "filter_inputs": False},
    "delay": {"max_lag": 10},
    "structure": {
        "n_max": 6, "m_max": 6, "p_max": 4,
        "plateau_threshold": structure.DEFAULT_PLATEAU_THRESHOLD,
        "convergence_floor": structure.DEFAULT_CONVERGENCE_FLOOR,
    },
    "estimator": {"method": "batch", "alpha_sq": estimate.DEFAULT_ALPHA_SQ},
    "fixed_orders": None,
    "n_train": 1000,
    "validation": {"one_step_ahead": False, "std_ddof": 0},
}


class StageError(RuntimeError):
    """Pipeline failure labeled with the stage it came from."""

    def __init__(self, stage: str, error: Exception):
        super().__init__(f"{stage}: {error}")
        self.stage = stage


@contextmanager
def stage(name: str):
    """Run a block as pipeline stage ``name``: any exception becomes a StageError."""
    try:
        yield
    except Exception as e:
        raise StageError(name, e) from e


# the JSON type of each field of a config list entry
_INPUT_FIELDS = {"name": str, "low": float, "high": float, "step": float, "unit": str, "seed": int}
_OUTPUT_FIELDS = {"name": str, "unit": str}
_ORDERS_FIELDS = {"n": int, "channels": list}
_ORDERS_CHANNEL_FIELDS = {"p": int, "m": int, "d": int}


def _merge(base: dict, user: dict, prefix: str = "") -> None:
    """Overlay ``user`` on ``base`` in place; a key ``base`` lacks, or a value
    whose JSON type differs from the default's, is an error."""
    for key, value in user.items():
        name = prefix + key
        if key not in base:
            raise ValueError(f"unknown config key {name!r}")
        check_type(name, value, type(base[key]))
        if isinstance(value, dict):
            _merge(base[key], value, f"{name}.")
        else:
            base[key] = value


def load_config(path: str | None, seed: int | None = None) -> dict:
    """Merge a config file over the defaults; ``seed`` overrides the base seed.

    The file must be a JSON object with finite numbers, and every error is a
    ``FileFormatError`` naming its path.  A key absent from DEFAULT_CONFIG,
    top-level or nested, is rejected by its dotted name.  The type rule of
    :mod:`persistence` holds for every value: its JSON type must equal its
    default's, except that an integer may stand for a real and a list for the
    null ``fixed_orders``.  List entries follow the same rule, named like
    ``inputs[0].low``: an ``inputs`` entry holds ``name`` (str) and ``low``,
    ``high`` and ``step`` (real), optionally ``unit`` (str) and ``seed``
    (int); an ``outputs`` entry holds ``name`` (str), optionally ``unit``
    (str); a ``fixed_orders`` entry holds ``n`` (int) and ``channels``, a
    list of ``{p, m, d}`` ints.  Further entry fields are kept.  Signal
    names follow :func:`model.check_signal_names`.
    """
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    user = {} if path is None else read_json_object(path)
    try:
        _merge(cfg, user)
        if seed is not None:
            cfg["seed"] = seed
        for idx, spec in enumerate(cfg["inputs"]):
            check_entry(spec, f"inputs[{idx}]", _INPUT_FIELDS, optional=("unit", "seed"))
            spec.setdefault("seed", cfg["seed"] + idx)
        for idx, spec in enumerate(cfg["outputs"]):
            check_entry(spec, f"outputs[{idx}]", _OUTPUT_FIELDS, optional=("unit",))
        for idx, entry in enumerate(cfg["fixed_orders"] or ()):
            check_entry(entry, f"fixed_orders[{idx}]", _ORDERS_FIELDS)
            for k, c in enumerate(entry["channels"]):
                check_entry(c, f"fixed_orders[{idx}].channels[{k}]", _ORDERS_CHANNEL_FIELDS)
        check_signal_names([spec["name"] for spec in cfg["inputs"] + cfg["outputs"]])
    except ValueError as e:
        raise FileFormatError(path, None, str(e)) from None
    return cfg


@dataclass(frozen=True)
class Identification:
    """Identified model, structure search per output (``None`` where
    ``fixed_orders`` set the orders) and hold-out validation report."""

    model: MimoHammersteinModel
    searches: tuple[structure.StructureSearchResult | None, ...]
    report: validate.ValidationReport


def identify(data: Dataset, cfg: dict) -> Identification:
    """preprocess -> split -> delays -> structure -> estimate -> separate -> validate.

    ``cfg`` is a resolved config (see :func:`load_config`).  Failures raise
    :class:`StageError` labeled with the stage.  An unknown estimator
    method, an ``alpha_sq`` not > 0 (:func:`estimate.check_alpha_sq`), a
    search setting that :class:`structure.SearchBounds` refuses, searched
    or not, a ``std_ddof`` other than 0 or 1 or not below the hold-out's
    length (:func:`validate.check_std_ddof`), and a dataset without input or
    without output series are refused before any work.  Every fit, batch
    or RLS, is solved from the R factor of the one bank the structure stage
    folds: the delay scan's and search's (:func:`structure.fold_bank`), or
    that of the fixed orders (:func:`structure.fold_orders`).
    """
    with stage("estimate"):
        method, alpha_sq = cfg["estimator"]["method"], cfg["estimator"]["alpha_sq"]
        if method not in ("batch", "rls"):
            raise ValueError(f"unknown estimator method {method!r}")
        estimate.check_alpha_sq(alpha_sq)
        if not data.n_inputs or not data.n_outputs:
            raise ValueError(f"dataset has no {'output' if data.n_inputs else 'input'} series")
    with stage("structure"):
        bounds = structure.SearchBounds(**cfg["structure"])
    with stage("validate"):
        vcfg, n_train = cfg["validation"], cfg["n_train"]
        # an n_train outside (0, N) is left to the split stage
        n_test = data.n_samples - n_train if 0 < n_train < data.n_samples else None
        validate.check_std_ddof(vcfg["std_ddof"], n_test)

    with stage("preprocess"):
        deviations, offsets = preprocess.prepare_dataset(data, **cfg["preprocess"])

    with stage("split"):
        train, test = validate.split_dataset(deviations, n_train)

    with stage("structure"):
        if cfg["fixed_orders"] is None:
            bank = structure.fold_bank(train, cfg["delay"]["max_lag"], bounds)
            searches = []
            for s in range(train.n_outputs):
                scan = structure.estimate_delays(train, s, cfg["delay"]["max_lag"], bank=bank)
                searches.append(structure.select_structure(
                    train, s, [est.delay for est in scan], bounds, bank=bank))
            orders_list = [search.selected for search in searches]
        else:
            orders_list = [estimate.StructureOrders(entry["n"], [
                estimate.ChannelOrders(c["p"], c["m"], c["d"]) for c in entry["channels"]
            ]) for entry in cfg["fixed_orders"]]
            bank, searches = structure.fold_orders(train, orders_list), [None] * data.n_outputs

    with stage("estimate"):
        per_output = []
        for s, orders in enumerate(orders_list):
            # every regression's columns are in the bank: no row is read again
            if method == "batch":
                fit = structure.fit_orders(orders, s, bank)
            else:
                # RLS folds the rows of the factor [R z] into its prior: R'R = H'H, R'z = H'y
                F, k = bank.factor(orders, s), orders.n_parameters
                fit = estimate.run_rls(estimate.RegressionProblem(
                    F[:k, :k], F[:k, k], estimate.regression_columns(orders)), alpha_sq)
            per_output.append((orders, estimate.separate_parameters(fit.theta, orders)))
        model = estimate.assemble_model(
            per_output, data.input_names, data.output_names, operating_point=offsets,
            metadata={"estimator": method, "n_train": n_train},
        )

    with stage("validate"):
        report = validate.evaluate(model, test, one_step_ahead=vcfg["one_step_ahead"],
                                   std_ddof=vcfg["std_ddof"])
    return Identification(model=model, searches=tuple(searches), report=report)
