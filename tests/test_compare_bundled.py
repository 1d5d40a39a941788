"""The comparison of ``tools/compare_bundled.py``, on small output trees; no scenario runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_bundled.py"
_SPEC = importlib.util.spec_from_file_location("compare_bundled", _PATH)
compare_bundled = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_bundled)


def report(wall_time, final=1.5):
    return json.dumps(
        {
            "scenario": "dive",
            "final_states": {"rv": [final, float("nan"), -0.0]},
            "timing": {"rv": {"wall_time_s": wall_time, "accepted_steps": 11}},
        }
    )


def write_tree(root, **changes):
    """One scenario's outputs, with ``changes`` replacing files by name."""
    files = {
        "dive_rv.csv": "t,x\n0.0,1.0\n",
        "dive_comparison.json": report(0.25),
        "stdout.txt": "dive [rv] -> terminal_time at t=1.000 s -> <out>/dive_rv.csv\n",
        "exit_code.txt": "0\n",
    }
    files.update(changes)
    (root / "dive").mkdir(parents=True)
    for name, text in files.items():
        if text is not None:
            (root / "dive" / name).write_text(text)
    return root


def test_equal_trees_and_wall_times_do_not_differ(tmp_path):
    parent = write_tree(tmp_path / "parent")
    change = write_tree(tmp_path / "change", **{"dive_comparison.json": report(7.0)})
    assert compare_bundled.differences(parent, change) == []


@pytest.mark.parametrize(
    "name, text, line",
    [
        ("dive_rv.csv", "t,x\n0.0,1.0000000000000002\n", "differs: dive/dive_rv.csv"),
        ("dive_rv.csv", "t,x\r\n0.0,1.0\r\n", "differs: dive/dive_rv.csv"),
        ("dive_comparison.json", report(0.25, final=1.25), "differs: dive/dive_comparison.json"),
        ("exit_code.txt", "1\n", "differs: dive/exit_code.txt\n  parent: 0\n  change: 1"),
        ("stdout.txt", "", "differs: dive/stdout.txt\n  parent: dive [rv] -> terminal_time"),
        ("dive_rv.csv", None, "only in parent: dive/dive_rv.csv"),
        ("dive_rvh.csv", "t,x\n", "only in change: dive/dive_rvh.csv"),
    ],
)
def test_each_difference_is_reported(tmp_path, name, text, line):
    parent = write_tree(tmp_path / "parent")
    change = write_tree(tmp_path / "change", **{name: text})
    found = compare_bundled.differences(parent, change)
    assert len(found) == 1 and found[0].startswith(line)


def test_a_signed_zero_differs(tmp_path):
    parent = write_tree(tmp_path / "parent")
    flipped = report(0.25).replace("-0.0", "0.0")
    change = write_tree(tmp_path / "change", **{"dive_comparison.json": flipped})
    assert compare_bundled.differences(parent, change) == [
        "differs: dive/dive_comparison.json\n"
        "  1 of 5 values differ\n"
        "    final_states.rv: 1 values, largest 0.000e+00"
    ]


def test_a_differing_json_is_measured(tmp_path):
    old = {
        "pairs": {"rv|rvh": {"t": [0.0, 1.0], "e_v": [1.0, 2.0, 3.0]}},
        "norm_drift": {"rvh": [2.0e-16, float("nan")]},
        "timing": {"rvh": {"wall_time_s": 0.5, "stop": "terminal_time"}},
    }
    new = {
        "pairs": {"rv|rvh": {"t": [0.0, 1.0], "e_v": [1.5, 2.0, 2.75, 4.0]}},
        "norm_drift": {"rvh": [1.0e-16, 1.0]},
        "timing": {"rvh": {"wall_time_s": 9.0, "stop": "radius_crossing", "steps": 3}},
    }
    parent = write_tree(tmp_path / "parent", **{"dive_comparison.json": json.dumps(old)})
    change = write_tree(tmp_path / "change", **{"dive_comparison.json": json.dumps(new)})
    (found,) = compare_bundled.differences(parent, change)
    # list indices are dropped and wall_time_s is ignored
    assert found.split("\n") == [
        "differs: dive/dive_comparison.json",
        "  7 of 10 values differ",
        "    pairs.rv|rvh.e_v: 3 values, largest 5.000e-01, 1 not numbers",
        "    norm_drift.rvh: 2 values, largest 1.000e-16, 1 not numbers",
        "    timing.rvh.stop: 1 values, 1 not numbers",
        "    timing.rvh.steps: 1 values, 1 not numbers",
    ]


@pytest.mark.parametrize("changes, code", [({}, 0), ({"exit_code.txt": "4\n"}, 1)])
def test_exit_status(tmp_path, monkeypatch, capsys, changes, code):
    # stand-in runs: the parent side writes the tree above, the change side
    # the tree with ``changes``
    def fake_run(checkout, out):
        write_tree(out, **(changes if checkout.name == "change" else {}))

    monkeypatch.setattr(compare_bundled, "run_bundled", fake_run)
    assert compare_bundled.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == code
    out = capsys.readouterr().out
    assert out.endswith(f"{code} differences; 1 scenarios and 1 CSVs in the change\n")


def test_a_differing_csv_is_measured(tmp_path):
    old, new = "t,x,s\n0.0,1.0,\n1.0,2.0,\n2.0,3.0,\n", "t,x,s\n0.0,1.0,\n1.0,2.5,7.0\n2.0,2.75,\n"
    parent = write_tree(tmp_path / "parent", **{"dive_rv.csv": old})
    change = write_tree(tmp_path / "change", **{"dive_rv.csv": new})
    assert compare_bundled.differences(parent, change) == [
        "differs: dive/dive_rv.csv\n"
        "  2 of 3 rows differ\n"
        "    x: 2 rows, largest 5.000e-01\n"
        "    s: 1 rows, 1 not numbers"
    ]


@pytest.mark.parametrize(
    "changed, lines",
    [
        (
            "t,x\n0.0,1.0\n",
            ["  2 rows in parent, 1 in change; the first 1 compared", "  0 of 1 rows differ"],
        ),
        ("t,y\n0.0,1.0\n1.0,2.0\n", ["  header differs"]),
        ("t,x\r\n0.0,1.0\r\n1.0,2.0\r\n", ["  0 of 2 rows differ"]),
    ],
)
def test_rows_and_header_of_a_differing_csv(tmp_path, changed, lines):
    parent = write_tree(tmp_path / "parent", **{"dive_rv.csv": "t,x\n0.0,1.0\n1.0,2.0\n"})
    change = write_tree(tmp_path / "change", **{"dive_rv.csv": changed})
    (found,) = compare_bundled.differences(parent, change)
    assert found.split("\n") == ["differs: dive/dive_rv.csv"] + lines


def test_every_differing_stdout_line_is_shown(tmp_path):
    parent = write_tree(tmp_path / "parent", **{"stdout.txt": "a\nb 1.0\nc\nd 2.0\n"})
    change = write_tree(tmp_path / "change", **{"stdout.txt": "a\nb 1.5\nc\nd 2.5\ne\n"})
    (found,) = compare_bundled.differences(parent, change)
    assert found.split("\n") == [
        "differs: dive/stdout.txt",
        "  parent: b 1.0", "  change: b 1.5",
        "  parent: d 2.0", "  change: d 2.5",
        "  parent: ", "  change: e",
    ]


def test_a_resampled_csv_compares_its_last_rows(tmp_path):
    # the change samples other times: rows of one index are other states, so
    # only the row counts and the last rows are reported
    old = "t,x,s\n0.0,1.0,\n1.0,2.0,\n2.0,3.0,\n"
    new = "t,x,s\n0.0,1.0,\n0.5,1.5,\n1.5,2.5,\n2.0,2.75,7.0\n"
    parent = write_tree(tmp_path / "parent", **{"dive_rv.csv": old})
    change = write_tree(tmp_path / "change", **{"dive_rv.csv": new})
    (found,) = compare_bundled.differences(parent, change)
    assert found.split("\n") == [
        "differs: dive/dive_rv.csv",
        "  re-sampled: 3 rows in parent, 4 in change; last rows compared",
        "    x: 2.500e-01",
        "    s: not numbers",
    ]
