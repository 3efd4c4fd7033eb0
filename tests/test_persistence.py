import json

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
    load_dataset,
    load_model,
    load_series,
    save_dataset,
    save_model,
    save_series,
)

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
        pytest.param(lambda doc: doc.pop("n_inputs"), "missing field 'n_inputs'", id="n_inputs"),
        pytest.param(lambda doc: doc.pop("n_outputs"), "missing field 'n_outputs'", id="n_outputs"),
        pytest.param(lambda doc: doc.update(channels=5), "not iterable", id="channels"),
    ])
    def test_missing_or_mistyped_field_rejected(self, tmp_path, edit, message):
        path = tmp_path / "model.json"
        save_model(path, gtaw_pool_model())
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match=message):
            load_model(path)

    def test_non_object_document_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2]\n")
        with pytest.raises(FileFormatError, match="expected a JSON object, got list"):
            load_model(path)
