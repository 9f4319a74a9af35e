"""tools/same_outputs.py: its quick suite gives the same bytes when run
twice on this tree, and its comparison names what differs."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_suite_twice_is_identical(tmp_path):
    tool = _tool()
    codes = tool.run_suite(tool.ROOT, tmp_path / "a", quick=True)
    assert codes == {"simulate": 0, "trajectory": 0, "chi-trajectory": 0, "resave": 0,
                     "modulate-track": 0, "modulate-chi-track": 0, "virial-audit": 0,
                     "soliton-table": 0}
    saved = tmp_path / "a" / "out" / "trajectory"
    assert tool.run_suite(tool.ROOT, tmp_path / "b", quick=True, trajectories=saved) == codes
    lines = tool.compare(tmp_path / "a" / "out", tmp_path / "b" / "out")
    # 3 files for each of 5 scenarios, 2 each for the two tracks and
    # virial-audit, the two trajectories and their indexes, the pair's again
    # after a load, the soliton table, the exit codes
    assert len(lines) == 29, lines
    assert all(line.endswith(": identical") for line in lines), lines


def test_compare_names_each_difference(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for side, y, error, blob in [(a, "2", None, b"\x00\x01"), (b, "2.5", "lost", b"\x00\x02")]:
        (side / "run").mkdir(parents=True)
        (side / "run" / "table.csv").write_bytes(f"x,y\r\n1,{y}\r\n3,4\r\n".encode())
        (side / "run" / "same.csv").write_bytes(b"x\r\n1\r\n")
        (side / "run" / "report.json").write_text(json.dumps(
            {"timings": {"total": len(y)}, "error": error,
             "config": {"diagnostics": {"gammas": [0.0]}}}))
        (side / "run" / "blob.bin").write_bytes(blob)
    (a / "run" / "extra.csv").write_text("x\r\n")
    report = json.loads((a / "run" / "report.json").read_text())
    report["error"] = "lost"
    report["config"]["diagnostics"]["b_path"] = "fixed_speed"
    assert _tool().compare(a, b) == [
        "run/blob.bin: differs (2 bytes against 2)",
        "run/extra.csv: only in the revision",
        "run/report.json: differs in error",
        "run/same.csv: identical",
        "run/table.csv: y abs 0.5 rel 0.2",
    ]
    # timings and a b_path echo are not compared
    (a / "run" / "report.json").write_text(json.dumps(report))
    assert "run/report.json: identical" in _tool().compare(a, b)


def test_compare_reports_header_changes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    tables = {"grown.csv": ("x,y\r\n1,2\r\n", "x,y,seam\r\n1,2,0\r\n"),
              "swapped.csv": ("x,y\r\n1,2\r\n3,4\r\n", "y,w\r\n2.5,0\r\n4,0\r\n"),
              "moved.csv": ("x,y\r\n1,2\r\n", "y,x\r\n2,1\r\n"),
              "short.csv": ("x,y\r\n1,2\r\n", "x\r\n")}
    for name, (text_a, text_b) in tables.items():
        for side, text in [(a, text_a), (b, text_b)]:
            side.mkdir(exist_ok=True)
            (side / name).write_bytes(text.encode())
    # common columns are compared by name, whatever their position
    assert _tool().compare(a, b) == [
        "grown.csv: added seam; 2 common columns identical",
        "moved.csv: columns reordered; 2 common columns identical",
        "short.csv: 1 rows against 0, or ragged rows",
        "swapped.csv: removed x; added w; y abs 0.5 rel 0.2",
    ]
