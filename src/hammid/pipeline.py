"""The identification pipeline as one library call, ``identify``.

Each stage runs inside :func:`stage`, which labels any failure with the
stage's name.  Every layer is called through its module attribute
(``structure.estimate_delays``, never a name imported from the module), so
a wrapper installed on that attribute, such as a tracer's, sees every call.
"""

from __future__ import annotations

import copy
import json
from contextlib import contextmanager
from dataclasses import dataclass

from . import estimate, preprocess, structure, validate
from .model import Dataset, MimoHammersteinModel

DEFAULT_CONFIG: dict = {
    "sample_period": 1.0,
    "n_samples": 1070,
    "seed": 1,
    "hold": 1,
    "inputs": [
        {"name": "I_p", "unit": "A", "low": 130.0, "high": 170.0, "step": 2.0,
         "operating_point": 150.0},
        {"name": "V_f", "unit": "cm/s", "low": 4.0, "high": 10.0, "step": 1.0,
         "operating_point": 7.0},
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


# accepted besides equal types: an integer for a real, and a list for
# ``fixed_orders``, whose default is null
_WIDENINGS = {(int, float), (list, type(None))}


def _merge(base: dict, user: dict, prefix: str = "") -> None:
    """Overlay ``user`` on ``base`` in place; a key ``base`` lacks, or a value
    whose JSON type differs from the default's, is an error."""
    for key, value in user.items():
        name = prefix + key
        if key not in base:
            raise ValueError(f"unknown config key {name!r}")
        have, want = type(value), type(base[key])
        if have is not want and (have, want) not in _WIDENINGS:
            raise ValueError(
                f"config key {name!r} must be {want.__name__}, got {have.__name__} {value!r}"
            )
        if isinstance(value, dict):
            _merge(base[key], value, f"{name}.")
        else:
            base[key] = value


def _entry(value, where: str, fields) -> None:
    """Check that config list entry ``where`` is an object holding every one of ``fields``."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be an object, got {value!r}")
    for key in fields:
        if key not in value:
            raise ValueError(f"{where}: missing field {key!r}")


def load_config(path: str | None, seed: int | None = None) -> dict:
    """Merge a config file over the defaults; ``seed`` overrides the base seed.

    A file that is not a JSON object is rejected by its path (and line, for
    invalid JSON).  A key absent from DEFAULT_CONFIG, top-level or nested, or
    a value whose JSON type differs from its default's, is rejected by its
    dotted name; an integer may stand for a real and a list for
    ``fixed_orders``.  Every ``inputs`` and ``outputs`` entry must be an
    object with the fields the commands read; further fields are kept.
    ``fixed_orders`` entries are checked when ``identify`` reads them.
    """
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path) as fh:
            try:
                user = json.load(fh)
            except json.JSONDecodeError as e:
                raise ValueError(f"config file {path}: invalid JSON at line {e.lineno}: "
                                 f"{e.msg}") from None
        if not isinstance(user, dict):
            raise ValueError(f"config file {path}: top level must be an object, "
                             f"got {type(user).__name__}")
        _merge(cfg, user)
    if seed is not None:
        cfg["seed"] = seed
    for idx, spec in enumerate(cfg["inputs"]):
        _entry(spec, f"inputs[{idx}]", ("name", "low", "high", "step"))
        spec.setdefault("seed", cfg["seed"] + idx)
    for idx, spec in enumerate(cfg["outputs"]):
        _entry(spec, f"outputs[{idx}]", ("name",))
    return cfg


def _parse_fixed_orders(raw) -> list[estimate.StructureOrders]:
    orders = []
    for i, entry in enumerate(raw):
        where = f"fixed_orders[{i}]"
        _entry(entry, where, ("n", "channels"))
        if not isinstance(entry["channels"], list):
            raise ValueError(f"{where}.channels must be a list, got {entry['channels']!r}")
        channels = []
        for k, c in enumerate(entry["channels"]):
            _entry(c, f"{where}.channels[{k}]", ("p", "m", "d"))
            channels.append(estimate.ChannelOrders(p=int(c["p"]), m=int(c["m"]), d=int(c["d"])))
        orders.append(estimate.StructureOrders(n=int(entry["n"]), channels=tuple(channels)))
    return orders


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
    :class:`StageError` labeled with the stage.
    """
    with stage("estimate"):
        method = cfg["estimator"]["method"]
        if method not in ("batch", "rls"):
            raise ValueError(f"unknown estimator method {method!r}")

    with stage("preprocess"):
        pp = preprocess.PreprocessConfig(
            median_window=int(cfg["preprocess"]["median_window"]),
            filter_inputs=bool(cfg["preprocess"]["filter_inputs"]),
        )
        deviations, offsets = preprocess.prepare_dataset(data, pp)

    with stage("split"):
        n_train = int(cfg["n_train"])
        train, test = validate.split_dataset(deviations, n_train)

    with stage("structure"):
        if cfg["fixed_orders"] is None:
            scfg = cfg["structure"]
            bounds = structure.SearchBounds(
                n_max=int(scfg["n_max"]), m_max=int(scfg["m_max"]), p_max=int(scfg["p_max"])
            )
            searches = []
            for s in range(train.n_outputs):
                scan = structure.estimate_delays(
                    train.inputs, train.outputs[:, s], int(cfg["delay"]["max_lag"])
                )
                searches.append(structure.select_structure(
                    train, s, [est.delay for est in scan], bounds,
                    plateau_threshold=float(scfg["plateau_threshold"]),
                    convergence_floor=float(scfg["convergence_floor"]),
                ))
            orders_list = [search.selected for search in searches]
        else:
            orders_list = _parse_fixed_orders(cfg["fixed_orders"])
            if len(orders_list) != data.n_outputs:
                raise ValueError(
                    f"fixed_orders describe {len(orders_list)} outputs, "
                    f"dataset has {data.n_outputs}"
                )
            searches = [None] * data.n_outputs

    with stage("estimate"):
        per_output = []
        for s, orders in enumerate(orders_list):
            prob = estimate.build_regressor(train, orders, s)
            if method == "rls":
                theta = estimate.run_rls(prob, float(cfg["estimator"]["alpha_sq"])).theta
            else:
                theta = estimate.batch_ls(prob).theta
            per_output.append((orders, estimate.separate_parameters(theta, orders)))
        model = estimate.assemble_model(
            per_output, data.input_names, data.output_names, operating_point=offsets,
            metadata={"estimator": method, "n_train": n_train},
        )

    with stage("validate"):
        vcfg = cfg["validation"]
        report = validate.evaluate(model, test, one_step_ahead=bool(vcfg["one_step_ahead"]),
                                   std_ddof=int(vcfg["std_ddof"]))
    return Identification(model=model, searches=tuple(searches), report=report)
