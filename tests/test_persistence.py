import json
import math
from fractions import Fraction

import numpy as np
import pytest

from hammid import (
    Dataset,
    FileFormatError,
    HammersteinChannel,
    LinearDynamics,
    MimoHammersteinModel,
    StaticNonlinearity,
    gtaw_pool_model,
    load_config,
    load_dataset,
    load_model,
    load_series,
    save_dataset,
    save_model,
    save_series,
)
from hammid import persistence
from hammid.cli import main

from helpers import preset_oracle_dataset


def _random_model(rng):
    n_in = int(rng.integers(1, 4))
    n_out = int(rng.integers(1, 3))
    rows = []
    for _ in range(n_out):
        a = tuple(rng.normal(size=int(rng.integers(0, 4))))
        row = tuple(
            HammersteinChannel(
                StaticNonlinearity(tuple(rng.normal(size=int(rng.integers(0, 4))))),
                LinearDynamics(a=a, b=tuple(rng.normal(size=int(rng.integers(1, 5)))),
                               d=int(rng.integers(0, 4))),
            )
            for _ in range(n_in)
        )
        rows.append(row)
    return MimoHammersteinModel(
        channels=tuple(rows),
        input_names=tuple(f"u{j}" for j in range(n_in)),
        output_names=tuple(f"y{s}" for s in range(n_out)),
        operating_point={"u0": float(rng.normal())},
        metadata={"note": "randomized round-trip case"},
    )


def _write_golden_series(tmp_path):
    save_series(tmp_path / "s.txt", [0.1 + 0.2, -0.0, 1e-300], name="I_p")
    return tmp_path / "s.txt"


def _write_golden_dataset(tmp_path):
    data = Dataset(
        sample_period=0.5,
        inputs=np.array([[0.1 + 0.2], [-0.0], [1e-300]]),
        outputs=np.array([[1.0, -2.5], [3e8, 1 / 3], [-1e-5, 7.0]]),
        input_names=("I_p",),
        output_names=("W_b", "H_f"),
        units={"I_p": "A", "W_b": "mm"},
        operating_point={"I_p": 150.0, "W_b": 0.1 + 0.2},
    )
    save_dataset(tmp_path / "d.csv", data)
    return tmp_path / "d.csv"


def _write_golden_trace(tmp_path):
    main(["preset", "--output", str(tmp_path / "m.json")])
    save_series(tmp_path / "ip.txt", [152.0, 148.0, 150.0], name="I_p")
    save_series(tmp_path / "vf.txt", [8.0, 7.0, 6.0], name="V_f")
    assert main([
        "simulate", "--model", str(tmp_path / "m.json"),
        "--inputs", str(tmp_path / "ip.txt"), str(tmp_path / "vf.txt"),
        "--output-dir", str(tmp_path),
    ]) == 0
    return tmp_path / "simulated_outputs.txt"


@pytest.mark.parametrize("write, text", [
    pytest.param(_write_golden_series, (
        "# hammid series v1\n"
        "# signal: I_p\n"
        "index,value\n"
        "0,0.30000000000000004\n"
        "1,-0.0\n"
        "2,1e-300\n"
    ), id="series"),
    pytest.param(_write_golden_dataset, (
        "# hammid dataset v1\n"
        "# sample_period: 0.5\n"
        "# inputs: I_p\n"
        "# outputs: W_b,H_f\n"
        "# units: I_p=A,W_b=mm\n"
        "# operating_point: I_p=150.0,W_b=0.30000000000000004\n"
        "index,I_p,W_b,H_f\n"
        "0,0.30000000000000004,1.0,-2.5\n"
        "1,-0.0,300000000.0,0.3333333333333333\n"
        "2,1e-300,-1e-05,7.0\n"
    ), id="dataset"),
    pytest.param(_write_golden_trace, (
        "# hammid trace v1\n"
        "index,W_b,H_f\n"
        "0,0.0,0.0\n"
        "1,0.014887766560000001,0.0\n"
        "2,0.0124114864951568,0.0\n"
    ), id="simulated-trace"),
])
def test_golden_file_text(tmp_path, write, text):
    """Pins the exact bytes of every text data file the package writes."""
    assert write(tmp_path).read_bytes() == text.encode()


def test_golden_trace_within_two_ulp_of_the_exact_recursion(tmp_path):
    """The golden trace's samples, against the difference equation run in
    exact rationals on the preset's stored floats and the written inputs.

    Each sample must lie within 2 ulp of its exact value.  Sample 1 is one
    float above the correctly rounded value; sample 2 is the correctly
    rounded value."""
    path = _write_golden_trace(tmp_path)
    model = load_model(tmp_path / "m.json")
    inputs = {"I_p": (152.0, 148.0, 150.0), "V_f": (8.0, 7.0, 6.0)}
    written = [line.split(",")[1:] for line in path.read_text().splitlines()[2:]]
    for s, row in enumerate(model.channels):
        a = [Fraction(x) for x in row[0].dynamics.a]
        x = [Fraction(0)] * 3
        for ch, name in zip(row, model.input_names):
            u = [Fraction(w) - Fraction(model.operating_point[name]) for w in inputs[name]]
            v = [uk + sum(Fraction(r) * uk**i for i, r in enumerate(ch.nonlinearity.coeffs, 2))
                 for uk in u]
            for k in range(3):
                x[k] += sum(Fraction(bl) * v[k - ch.dynamics.d - l]
                            for l, bl in enumerate(ch.dynamics.b) if k - ch.dynamics.d - l >= 0)
        y = []
        for k in range(3):
            y.append(x[k] - sum(ai * y[k - i] for i, ai in enumerate(a, 1) if k - i >= 0))
        for k, exact in enumerate(y):
            got = float(written[k][s])
            assert abs(Fraction(got) - exact) <= 2 * Fraction(math.ulp(float(exact))), (s, k)


_ODD_HEAD = "# hammid dataset v1\n# sample_period: 1.0\n# inputs: u\n# outputs: y\nindex,u,y\n"


# Rows after a two-column header and what _read_table makes of them: the
# table, or the error text after the path.  Each is what a per-cell
# ``float`` parse gives; np.loadtxt rejects or reshapes many of these rows.
@pytest.mark.parametrize("rows, expected", [
    pytest.param("0,1.0,2.0\n\n1,3.0,4.0\n", ":7: expected 3 columns, got 1", id="blank-inside"),
    pytest.param("0,1.0,2.0\n\n", ":7: expected 3 columns, got 1", id="blank-at-end"),
    pytest.param("0,1.0,2.0\n   \n", ":7: expected 3 columns, got 1", id="space-line"),
    pytest.param("0,1.0,2.0\r\n1,3.0,4.0\r\n", [[1.0, 2.0], [3.0, 4.0]], id="crlf"),
    pytest.param("0,1_0,2.0\n", [[10.0, 2.0]], id="underscore"),
    pytest.param("0, 1.5 ,2.0\n", [[1.5, 2.0]], id="space-padded"),
    pytest.param("0,\t1.5,2.0\n", [[1.5, 2.0]], id="tab-padded"),
    pytest.param("0,+1.5,2.0\n", [[1.5, 2.0]], id="plus-sign"),
    pytest.param("0,-0.0,2.0\n", [[-0.0, 2.0]], id="negative-zero"),
    pytest.param("a,1.5,2.0\n", [[1.5, 2.0]], id="text-index"),
    pytest.param(",1.5,2.0\n", [[1.5, 2.0]], id="empty-index"),
    pytest.param("0,1.0,2.0,3.0\n", ":6: expected 3 columns, got 4", id="extra-column"),
    pytest.param("0,1.0\n", ":6: expected 3 columns, got 2", id="missing-column"),
    pytest.param("0,1.0,nan\n", ":6: non-finite y: nan", id="nan"),
    pytest.param("0,1e5000,2.0\n", ":6: non-finite u: inf", id="overflow"),
    pytest.param("0,1.0,-Infinity\n", ":6: non-finite y: -inf", id="infinity"),
    pytest.param("0,nan,2.0\n1,x,2.0\n", ":7: non-numeric u: 'x'", id="bad-cell-after-nan"),
    pytest.param("0,0x1p3,2.0\n", ":6: non-numeric u: '0x1p3'", id="hex"),
    pytest.param('0,"1.5",2.0\n', ":6: non-numeric u: '\"1.5\"'", id="quoted"),
    pytest.param("0,1.5,2.0 # note\n", ":6: non-numeric y: '2.0 # note'", id="comment"),
    pytest.param("0,,2.0\n", ":6: non-numeric u: ''", id="empty-cell"),
    pytest.param("0,5e-324,2.225073858507201e-308\n", [[5e-324, 2.225073858507201e-308]],
                 id="subnormal"),
    pytest.param("0,.5,5.\n", [[0.5, 5.0]], id="bare-point"),
    pytest.param("", ": no data rows", id="no-rows"),
])
def test_read_table_matches_per_cell_parse(tmp_path, rows, expected):
    head = _ODD_HEAD.replace("\n", "\r\n") if "\r\n" in rows else _ODD_HEAD
    path = tmp_path / "d.csv"
    path.write_bytes((head + rows).encode())
    if isinstance(expected, str):
        with pytest.raises(FileFormatError) as err:
            persistence._read_table(path, "# hammid dataset v1")
        assert str(err.value) == f"{path}{expected}"
    else:
        table = persistence._read_table(path, "# hammid dataset v1")[3]
        assert table.tobytes() == np.array(expected).tobytes()


def test_loadtxt_reads_round_trip_decimals_bitwise(tmp_path, monkeypatch):
    """17-digit values, subnormals, signed zeros and 1e+-300 load as ``float``
    reads them, by the one-call parse alone."""
    cells = [
        ["0.30000000000000004", "0.1", "-0.0", "0.0"],
        ["5e-324", "2.225073858507201e-308", "2.2250738585072014e-308", "1e-310"],
        ["1e-300", "-1e+300", "1.7976931348623157e+308", "9007199254740993"],
        ["0.3333333333333333", "-1.0000000000000002", "123456789.12345679", "1e-05"],
    ]
    path = tmp_path / "d.csv"
    path.write_text(
        "# hammid series v1\nindex,a,b,c,d\n"
        + "".join(f"{k}," + ",".join(row) + "\n" for k, row in enumerate(cells))
    )

    def per_cell_parse(*args):
        raise AssertionError("fell back to the per-cell parse")

    monkeypatch.setattr(persistence, "_parse_cells", per_cell_parse)
    table = persistence._read_table(path, "# hammid series v1")[3]
    assert table.tobytes() == np.array([[float(c) for c in row] for row in cells]).tobytes()


class TestSeries:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(70)
        values = rng.normal(size=64) * 10.0 ** rng.integers(-8, 8, size=64)
        path = tmp_path / "series.txt"
        save_series(path, values, name="I_p")
        loaded, name = load_series(path)
        np.testing.assert_array_equal(loaded, values)
        assert name == "I_p"

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("index,value\n0,1.0\n")
        with pytest.raises(FileFormatError, match="missing header"):
            load_series(path)

    def test_bad_cell_cites_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# hammid series v1\n# signal: u\nindex,value\n0,1.0\n1,oops\n")
        with pytest.raises(FileFormatError, match="bad.txt:5"):
            load_series(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_value_cites_line(self, tmp_path, cell):
        path = tmp_path / "bad.txt"
        path.write_text(f"# hammid series v1\n# signal: u\nindex,value\n0,1.0\n1,{cell}\n")
        with pytest.raises(FileFormatError, match="bad.txt:5: non-finite value") as err:
            load_series(path)
        assert err.value.line == 5

    @pytest.mark.parametrize("header, row", [
        pytest.param("index,val", "0,1.0", id="renamed-column"),
        pytest.param("index,value,extra", "0,1.0,2.0", id="extra-column"),
    ])
    def test_wrong_column_header_cites_line(self, tmp_path, header, row):
        path = tmp_path / "bad.txt"
        path.write_text(f"# hammid series v1\n# signal: u\n{header}\n{row}\n")
        with pytest.raises(FileFormatError) as err:
            load_series(path)
        assert str(err.value) == f"{path}:3: expected 'index,value' column header"


class TestDatasetFiles:
    def test_three_row_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "# hammid dataset v1\n"
            "# sample_period: 1.0\n"
            "# inputs: u1,u2\n"
            "# outputs: y1,y2\n"
            "index,u1,u2,y1,y2\n"
            "0,1.0,2.0,3.0,4.0\n"
            "1,1.5,2.5,3.5,4.5\n"
            "2,2.0,3.0,4.0,5.0\n"
        )
        data = load_dataset(path)
        assert data.n_samples == 3
        assert data.input_names == ("u1", "u2")
        np.testing.assert_array_equal(data.outputs[:, 1], [4.0, 4.5, 5.0])

    def test_round_trip_generated(self, tmp_path):
        data = preset_oracle_dataset(n_samples=40)
        path = tmp_path / "oracle.csv"
        save_dataset(path, data)
        loaded = load_dataset(path)
        np.testing.assert_array_equal(loaded.inputs, data.inputs)
        np.testing.assert_array_equal(loaded.outputs, data.outputs)
        assert loaded.sample_period == data.sample_period
        assert loaded.input_names == data.input_names

    def test_round_trip_randomized(self, tmp_path):
        rng = np.random.default_rng(71)
        for case in range(100):
            n = int(rng.integers(1, 12))
            r = int(rng.integers(1, 3))
            m = int(rng.integers(1, 3))
            data = Dataset(
                sample_period=float(rng.uniform(0.1, 10)),
                inputs=rng.normal(size=(n, r)) * 10.0 ** rng.integers(-6, 6),
                outputs=rng.normal(size=(n, m)) * 10.0 ** rng.integers(-6, 6),
                input_names=tuple(f"u{j}" for j in range(r)),
                output_names=tuple(f"y{s}" for s in range(m)),
                units={"u0": "A"},
                operating_point={"u0": float(rng.normal())},
            )
            path = tmp_path / f"case{case}.csv"
            save_dataset(path, data)
            loaded = load_dataset(path)
            np.testing.assert_array_equal(loaded.inputs, data.inputs)
            np.testing.assert_array_equal(loaded.outputs, data.outputs)
            assert loaded.sample_period == data.sample_period
            assert loaded.operating_point == data.operating_point

    def test_non_numeric_cell_cites_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        lines = [
            "# hammid dataset v1",
            "# sample_period: 1.0",
            "# inputs: u",
            "# outputs: y",
            "index,u,y",
        ]
        lines += [f"{k},{k}.0,{k}.5" for k in range(5)]
        lines[7] = "2,abc,2.5"  # file line 8
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match="bad.csv:8"):
            load_dataset(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_cites_row(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        lines = [
            "# hammid dataset v1",
            "# sample_period: 1.0",
            "# inputs: u",
            "# outputs: y",
            "index,u,y",
        ]
        lines += [f"{k},{k}.0,{k}.5" for k in range(5)]
        lines[8] = f"3,3.0,{cell}"  # file line 9
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match="bad.csv:9: non-finite y") as err:
            load_dataset(path)
        assert err.value.line == 9

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# hammid dataset v1\n# sample_period: 1.0\n# inputs: u\n# outputs: y\n"
            "index,u,y\n0,1.0,2.0\n1,1.0\n"
        )
        with pytest.raises(FileFormatError, match="expected 3 columns"):
            load_dataset(path)

    def test_non_positive_sample_period(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# hammid dataset v1\n# sample_period: 0.0\n# inputs: u\n# outputs: y\n"
            "index,u,y\n0,1.0,2.0\n"
        )
        with pytest.raises(FileFormatError, match="sample_period"):
            load_dataset(path)

    @pytest.mark.parametrize("line", [
        "# sample_period: inf", "# sample_period: nan", "# operating_point: u=nan",
    ])
    def test_non_finite_header_value_cites_line(self, tmp_path, line):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# hammid dataset v1\n# sample_period: 1.0\n# inputs: u\n# outputs: y\n"
            f"{line}\nindex,u,y\n0,1.0,2.0\n"
        )
        with pytest.raises(FileFormatError, match="bad.csv:5: non-finite") as err:
            load_dataset(path)
        assert err.value.line == 5

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda ls: ls.pop(2), ": missing '# inputs:' line", id="no-inputs-line"),
        pytest.param(lambda ls: ls.__setitem__(4, "index,u,z"),
                     ":5: columns 'u,z' != inputs and outputs 'u,y'", id="columns"),
        pytest.param(lambda ls: ls.__setitem__(slice(3, 5), ["# outputs: u", "index,u,u"]),
                     ":5: signal name 'u' is repeated", id="repeated-name"),
        pytest.param(lambda ls: ls.__setitem__(slice(3, 5), ["# outputs: y/b", "index,u,y/b"]),
                     ":5: signal name 'y/b' contains '/'", id="slash-name"),
        pytest.param(lambda ls: ls.__setitem__(slice(3, 5), ["# outputs: y\\b", "index,u,y\\b"]),
                     ":5: signal name 'y\\\\b' contains '\\\\'", id="backslash-name"),
        pytest.param(lambda ls: ls.__setitem__(slice(3, 5), ["# outputs: y=b", "index,u,y=b"]),
                     ":5: signal name 'y=b' contains '='", id="equals-name"),
        pytest.param(lambda ls: ls.__setitem__(slice(3, 5), ["# outputs: y\tb", "index,u,y\tb"]),
                     ":5: signal name 'y\\tb' contains '\\t'", id="tab-name"),
        pytest.param(lambda ls: ls.__setitem__(4, "idx,u,y"),
                     ":5: expected an 'index,...' column header", id="no-index-column"),
        pytest.param(lambda ls: ls.pop(), ": no data rows", id="no-rows"),
        pytest.param(lambda ls: ls.insert(4, "# units: u=A,y"),
                     ":5: expected name=value, got 'y'", id="malformed-mapping"),
    ])
    def test_malformed_file_rejected(self, tmp_path, edit, message):
        lines = ["# hammid dataset v1", "# sample_period: 1.0", "# inputs: u", "# outputs: y",
                 "index,u,y", "0,1.0,2.0"]
        edit(lines)
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError) as err:
            load_dataset(path)
        assert str(err.value) == f"{path}{message}"

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,u,y\n0,1.0,2.0\n")
        with pytest.raises(FileFormatError, match="missing header"):
            load_dataset(path)


class TestModelFiles:
    def test_preset_round_trip(self, tmp_path):
        model = gtaw_pool_model()
        path = tmp_path / "model.json"
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.channels == model.channels
        assert loaded.input_names == model.input_names
        assert loaded.operating_point == model.operating_point
        assert loaded.metadata == model.metadata

    def test_round_trip_randomized(self, tmp_path):
        rng = np.random.default_rng(72)
        for case in range(100):
            model = _random_model(rng)
            path = tmp_path / f"model{case}.json"
            save_model(path, model)
            loaded = load_model(path)
            assert loaded.channels == model.channels
            assert loaded.operating_point == model.operating_point

    def test_mismatched_row_denominators_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, gtaw_pool_model())
        doc = json.loads(path.read_text())
        doc["channels"][0][1]["a"][0] = 0.5
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match="denominator"):
            load_model(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("")
        with pytest.raises(FileFormatError, match="invalid JSON"):
            load_model(path)

    def test_unknown_schema_version(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, gtaw_pool_model())
        doc = json.loads(path.read_text())
        doc["schema_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match="schema_version"):
            load_model(path)

    def test_inconsistent_orders_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, gtaw_pool_model())
        doc = json.loads(path.read_text())
        doc["channels"][0][0]["p"] = 7
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match="degree"):
            load_model(path)

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda doc: doc["channels"][0][0].update(n=3),
                     "channels[0][0]: stated orders do not match coefficients", id="orders"),
        pytest.param(lambda doc: doc["channels"][1][0].pop("b"),
                     "missing field 'channels[1][0].b'", id="channel-field"),
        pytest.param(lambda doc: doc.update(n_inputs=3),
                     "stated arity does not match the channel grid", id="arity"),
    ])
    def test_inconsistent_document_rejected(self, tmp_path, edit, message):
        path = tmp_path / "model.json"
        save_model(path, gtaw_pool_model())
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError) as err:
            load_model(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda doc: doc.pop("n_inputs"), "missing field 'n_inputs'", id="n_inputs"),
        pytest.param(lambda doc: doc.pop("n_outputs"), "missing field 'n_outputs'", id="n_outputs"),
        pytest.param(lambda doc: doc.update(channels=5),
                     "key 'channels' must be list, got int 5", id="channels"),
        pytest.param(lambda doc: doc["channels"][0][1].update(d=2.7),
                     "key 'channels[0][1].d' must be int, got float 2.7", id="real-delay"),
        pytest.param(lambda doc: doc["channels"][0][1].update(d=True),
                     "key 'channels[0][1].d' must be int, got bool True", id="bool-delay"),
        pytest.param(lambda doc: doc["channels"][0][1].update(d="1"),
                     "key 'channels[0][1].d' must be int, got str '1'", id="string-delay"),
        pytest.param(lambda doc: doc["channels"][0][0].update(r=["0.5"]),
                     "key 'channels[0][0].r[0]' must be float, got str '0.5'", id="string-coeff"),
        pytest.param(lambda doc: doc.update(input_names="uv"),
                     "key 'input_names' must be list, got str 'uv'", id="string-names"),
        pytest.param(lambda doc: doc.update(operating_point=[["I_p", 150]]),
                     "key 'operating_point' must be dict, got list [['I_p', 150]]",
                     id="pairs-operating-point"),
        pytest.param(lambda doc: doc["operating_point"].update(I_p="x"),
                     "key 'operating_point.I_p' must be float, got str 'x'",
                     id="string-operating-point"),
        pytest.param(lambda doc: doc.update(metadata=[]),
                     "key 'metadata' must be dict, got list []", id="list-metadata"),
    ])
    def test_missing_or_mistyped_field_rejected(self, tmp_path, edit, message):
        path = tmp_path / "model.json"
        save_model(path, gtaw_pool_model())
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError) as err:
            load_model(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("where, number", [
        pytest.param(("channels", 0, 0, "b", 0), "NaN", id="coefficient-nan"),
        pytest.param(("operating_point", "I_p"), "-Infinity", id="operating-point-inf"),
        pytest.param(("channels", 1, 0, "a", 0), "1e999", id="overflowing-literal"),
    ])
    def test_non_finite_number_rejected(self, tmp_path, where, number):
        path = tmp_path / "model.json"
        save_model(path, gtaw_pool_model())
        doc = json.loads(path.read_text())
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = "NON-FINITE"
        path.write_text(json.dumps(doc).replace('"NON-FINITE"', number))
        with pytest.raises(FileFormatError, match=f"non-finite number: {number}"):
            load_model(path)

    def test_non_object_document_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2]\n")
        with pytest.raises(FileFormatError, match="expected a JSON object, got list"):
            load_model(path)


@pytest.mark.parametrize("load", [load_config, load_model])
@pytest.mark.parametrize("text, message", [
    pytest.param('{"estimator": {"alpha_sq": NaN}}', ": non-finite number: NaN", id="nan"),
    pytest.param('{"estimator": {"alpha_sq": Infinity}}', ": non-finite number: Infinity",
                 id="infinity"),
    pytest.param('{"estimator": {"alpha_sq": -Infinity}}', ": non-finite number: -Infinity",
                 id="minus-infinity"),
    pytest.param('{"estimator": {"alpha_sq": 1e400}}', ": non-finite number: 1e400",
                 id="overflowing-literal"),
    pytest.param('{\n  "seed": 3,\n}\n',
                 ":3: invalid JSON: Expecting property name enclosed in double quotes",
                 id="invalid-json"),
    pytest.param("[1, 2]\n", ": expected a JSON object, got list", id="list"),
])
def test_config_and_model_share_one_json_reader(tmp_path, load, text, message):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(FileFormatError) as err:
        load(str(path))
    assert str(err.value) == f"{path}{message}"
