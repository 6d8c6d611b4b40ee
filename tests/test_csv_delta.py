"""The CSV-delta report on hand-written CSV directories (no experiment runs)."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "csv_delta.py"
_spec = importlib.util.spec_from_file_location("csv_delta", TOOL)
csv_delta = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(csv_delta)

HEAD = "# cvq 0.1.0 experiment=demo profile=fast\n"
BASE = HEAD + "x,P_a,P_b\n1.0,0.5,0.25\n2.0,0.4,0.0\n3.0,0.3,0.125\n"


def _dirs(tmp_path, files_a, files_b):
    dirs = []
    for name, files in (("a", files_a), ("b", files_b)):
        d = tmp_path / name
        d.mkdir()
        for fname, text in files.items():
            (d / fname).write_text(text, encoding="utf-8", newline="\n")
        dirs.append(d)
    return dirs


def test_identical_directories(tmp_path, capsys):
    a, b = _dirs(tmp_path, {"demo.csv": BASE, "other.csv": BASE},
                 {"demo.csv": BASE, "other.csv": BASE})
    assert csv_delta.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["demo.csv: identical", "other.csv: identical", "2 of 2 identical"]


def test_moved_column_rows_and_maxima(tmp_path):
    moved = BASE.replace("2.0,0.4,0.0", "2.0,0.4000001,0.0").replace("3.0,0.3,", "3.0,0.31,")
    a, b = _dirs(tmp_path, {"demo.csv": BASE, "same.csv": BASE},
                 {"demo.csv": moved, "same.csv": BASE})
    lines, same, total = csv_delta.compare(a, b)
    assert (same, total) == (1, 2)
    assert lines[0] == "demo.csv: differs"
    row = next(line for line in lines if line.split()[0] == "P_a").split()
    # two rows moved; the largest absolute change 0.01 and the largest
    # relative change 0.01/0.3 both sit in data row 2
    assert row[1] == "2/3"
    assert float(row[2]) == pytest.approx(0.01, rel=1e-2) and row[3] == "2"
    assert float(row[4]) == pytest.approx(0.01 / 0.3, rel=1e-2) and row[5] == "2"
    assert not any(line.split()[0] in ("x", "P_b") for line in lines[1:])
    assert lines[-1] == "1 of 2 identical"


def test_change_from_zero_is_infinitely_relative(tmp_path):
    moved = BASE.replace("2.0,0.4,0.0", "2.0,0.4,1e-300")
    a, b = _dirs(tmp_path, {"demo.csv": BASE}, {"demo.csv": moved})
    lines, _, _ = csv_delta.compare(a, b)
    row = next(line for line in lines if line.split()[0] == "P_b").split()
    assert row[1] == "1/3" and row[3] == "1" and row[4] == "inf"


def test_header_reported_apart_from_data(tmp_path, capsys):
    changed = BASE.replace(HEAD, HEAD + "# evals = 12\n")
    a, b = _dirs(tmp_path, {"demo.csv": BASE}, {"demo.csv": changed})
    assert csv_delta.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["demo.csv: differs", "  header + # evals = 12", "0 of 1 identical"]


def test_shape_change_and_missing_file(tmp_path):
    longer = BASE + "4.0,0.2,0.0\n"
    a, b = _dirs(tmp_path, {"demo.csv": BASE, "gone.csv": BASE}, {"demo.csv": longer})
    lines, same, total = csv_delta.compare(a, b)
    assert (same, total) == (0, 2)
    assert lines[1].startswith("  shape:") and "3 rows" in lines[1] and "4 rows" in lines[1]
    assert lines[2] == f"gone.csv: only in {a}"


def test_usage_errors(tmp_path):
    with pytest.raises(SystemExit):
        csv_delta.main([str(tmp_path)])
    with pytest.raises(SystemExit):
        csv_delta.main(["--write", str(tmp_path), str(tmp_path), str(tmp_path)])
