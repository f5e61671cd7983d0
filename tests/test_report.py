import csv
import io
import json

import pytest

from prodcong.report import Report


def make_report():
    return Report(
        command="demo",
        config={"p": 7, "ratio": 0.25, "name": "x"},
        columns=["a", "b", "c", "d"],
        rows=[
            {"a": 1, "b": 0.5, "c": None, "d": True},
            {"a": 2, "b": 0.25, "c": "s", "d": False},
        ],
        summary={"count": 2, "values": [1, 2]},
    )


class TestJson:
    def test_document_shape(self):
        doc = json.loads(make_report().to_json())
        assert doc["schema_version"] == 1
        assert doc["command"] == "demo"
        assert doc["columns"] == ["a", "b", "c", "d"]
        assert doc["rows"][0]["c"] is None
        assert doc["config"]["p"] == 7

    def test_trailing_newline(self):
        assert make_report().to_json().endswith("}\n")


class TestCsv:
    def test_rendering(self):
        body = make_report().to_csv()
        lines = body.split("\n")
        assert lines[0] == "a,b,c,d"
        assert lines[1] == "1,0.5,,true"
        assert lines[2] == "2,0.25,s,false"
        assert body.endswith("\n")

    def test_row_data_matches_json(self):
        rep = make_report()
        doc = json.loads(rep.to_json())
        parsed = list(csv.DictReader(io.StringIO(rep.to_csv())))
        assert len(parsed) == len(doc["rows"])
        for csv_row, json_row in zip(parsed, doc["rows"]):
            for key, value in json_row.items():
                expected = (
                    ""
                    if value is None
                    else ("true" if value is True else "false")
                    if isinstance(value, bool)
                    else (repr(value) if isinstance(value, float) else str(value))
                )
                assert csv_row[key] == expected

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            make_report().render("xml")


class TestWrite:
    def test_file_output_is_utf8_bytes(self, tmp_path):
        target = tmp_path / "out.json"
        rep = make_report()
        rep.write(str(target), "json")
        assert target.read_text(encoding="utf-8") == rep.to_json()


class TestColumns:
    def test_default_is_first_row_keys(self):
        rep = Report(command="demo", config={}, rows=[{"z": 1, "a": 2}], summary={})
        assert rep.columns == ["z", "a"]
        assert rep.to_csv() == "z,a\n1,2\n"

    def test_report_without_rows_names_its_columns(self):
        assert Report(command="demo", config={}, rows=[], summary={}, columns=["a"]).to_csv() == "a\n"
        with pytest.raises(ValueError, match="columns"):
            Report(command="demo", config={}, rows=[], summary={})
