"""tools/golden_diff.py, the regeneration report, on a synthetic repository."""

import importlib.util
import subprocess
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "golden_diff", Path(__file__).resolve().parents[1] / "tools" / "golden_diff.py")
golden_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden_diff)

FILES = {
    "moved.csv": "kappa,value\n2,0.8725850\n10,0.95\n",
    "worded.txt": "kappa 2 value 0.5\nall rows passed\n",
    "same.json": '{"seed": 1, "total": 44}\n',
}


def _repo(tmp_path):
    golden = tmp_path / "tests" / "data" / "golden"
    golden.mkdir(parents=True)
    for name, text in FILES.items():
        (golden / name).write_text(text)
    for args in (["init", "-q"], ["add", "-A"],
                 ["-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "golden"]):
        subprocess.run(["git", "-C", str(tmp_path), *args], check=True)
    return golden


def test_reports_moved_values_and_names_a_changed_word(tmp_path, capsys):
    golden = _repo(tmp_path)
    (golden / "moved.csv").write_text("kappa,value\n2,0.8725851\n10,0.95\n")
    (golden / "worded.txt").write_text("kappa 2 value 0.5\nall rows failed\n")
    assert golden_diff.main(["HEAD"], root=tmp_path) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("moved.csv: 1 of 4 values changed, largest relative move 1.15e-07 at "
                      "line 2 (0.8725850 -> 0.8725851); lines 2")
    assert out[1] == "same.json: 0 of 2 values changed"
    assert out[2:] == ["worded.txt: line 2: text differs", "  - all rows passed",
                       "  + all rows failed"]


def test_moved_values_alone_exit_0(tmp_path, capsys):
    golden = _repo(tmp_path)
    (golden / "moved.csv").write_text("kappa,value\n2,0.8725850\n10,0.97\n")
    (golden / "new.txt").write_text("1\n")
    assert golden_diff.main(["HEAD"], root=tmp_path) == 0
    out = capsys.readouterr().out
    assert "moved.csv: 1 of 4 values changed, largest relative move 0.0211 at line 3" in out
    assert "new.txt: only in the working tree" in out
    assert "worded.txt: 0 of 2 values changed" in out


def test_lists_each_line_on_one_side_only_where_rows_are_removed(tmp_path, capsys):
    golden = _repo(tmp_path)
    (golden / "moved.csv").write_text("kappa,value\n10,0.95\n")  # row 2 removed
    (golden / "worded.txt").write_text("kappa 2 value 0.5\nall rows passed\nkappa 3 value 0.1\n")
    assert golden_diff.main(["HEAD"], root=tmp_path) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["moved.csv: 3 -> 2 lines; on one side only:", "  - line 2: 2,0.8725850",
                   "same.json: 0 of 2 values changed",
                   "worded.txt: 2 -> 3 lines; on one side only:",
                   "  + line 3: kappa 3 value 0.1"]


def test_a_table_number_whose_text_changed_length_is_a_moved_value(tmp_path, capsys):
    # the column padding after the number takes up its longer text
    golden = _repo(tmp_path)
    (golden / "table.txt").write_text("kappa  value\n2      0.063868427494872  ok\n")
    subprocess.run(["git", "-C", str(tmp_path), "add", "-A"], check=True)
    subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
                    "commit", "-q", "-m", "table"], check=True)
    (golden / "table.txt").write_text("kappa  value\n2      0.0638684274948719 ok\n")
    assert golden_diff.main(["HEAD"], root=tmp_path) == 0
    assert ("table.txt: 1 of 2 values changed, largest relative move 1.52e-15 at line 2 "
            "(0.063868427494872 -> 0.0638684274948719); lines 2") in capsys.readouterr().out
