import csv
import json
from dataclasses import fields

import pytest

from rggembed.cli import main
from rggembed.harness import TrialRecord


def test_trial_json_output(tmp_path, capsys):
    out = tmp_path / "trial.json"
    code = main([
        "trial", "--n", "1500", "--d", "1", "--delta", "3", "--family", "path",
        "--r-mult", "4", "--epsilon", "4.5", "--m", "150", "--seed", "3",
        "--format", "json", "--out", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert data[0]["status"] in ("success", "failure", "infeasible")
    assert data[0]["n"] == 1500
    # sim-mode rows carry the hub's numbers, and exactly the record's fields
    # (so none of the retired audit's)
    assert data[0]["hub_demanded"] == 2 * (data[0]["k"] - 1)
    assert set(data[0]) == {f.name for f in fields(TrialRecord)} - {"embedding"}


def test_sweep_csv_output(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--n", "1200", "--d", "1", "--delta", "3", "--family", "path",
        "--r-mult", "0.5", "--r-mult", "4", "--trials", "3",
        "--epsilon", "4.5", "--m", "150", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert {"r", "trials", "successes", "frequency", "wilson_low", "wilson_high"} <= set(rows[0])
    assert int(rows[0]["trials"]) == 3


def test_paper_mode_records_infeasible(tmp_path):
    out = tmp_path / "paper.json"
    code = main([
        "trial", "--n", "1500", "--d", "2", "--delta", "3", "--family", "path",
        "--r-mult", "2", "--mode", "paper", "--format", "json", "--out", str(out),
    ])
    assert code == 0  # completed experiment, even though construction is infeasible
    data = json.loads(out.read_text())
    assert data[0]["status"] == "infeasible"


def test_lowerbound_output(tmp_path, capsys):
    out = tmp_path / "lb.csv"
    code = main([
        "lowerbound", "--n", "400", "--d", "2", "--delta", "3",
        "--r", "1.4", "--trials", "2", "--seed", "0", "--out", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "obstruction fraction" in printed
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert {"diameter", "diameter_upper", "obstructed", "corner_occupied"} <= set(rows[0])


def test_lowerbound_rows_are_certified(tmp_path):
    # at 1.2 r_c the diameter sits at 2h = 20, so both outcomes occur; an
    # obstructed row is certified by its diameter, any other by its upper end
    out = tmp_path / "lb.csv"
    code = main([
        "lowerbound", "--n", "2000", "--d", "2", "--delta", "3",
        "--r-mult", "1.2", "--trials", "4", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert {row["obstructed"] for row in rows} == {"True", "False"}
    for row in rows:
        two_h, lb, ub = int(row["two_h"]), float(row["diameter"]), float(row["diameter_upper"])
        obstructed = row["obstructed"] == "True"
        assert lb <= ub
        assert obstructed == (lb > two_h)
        assert obstructed or ub <= two_h


def test_concentration_output(tmp_path, capsys):
    out = tmp_path / "conc.csv"
    code = main([
        "concentration", "--n", "10000", "--a", "0.2", "--p", "0.5",
        "--trials", "10", "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    assert "violation frequency" in capsys.readouterr().out
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10


def test_prop1_output(tmp_path, capsys):
    out = tmp_path / "prop1.json"
    code = main([
        "prop1", "--n", "128", "--c", "0.1", "--c", "50", "--trials", "5",
        "--seed", "4", "--format", "json", "--out", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data) == 2
    assert data[1]["frequency"] >= data[0]["frequency"]


def test_invalid_config_exits_nonzero(capsys):
    # both --r and --r-mult
    code = main([
        "sweep", "--n", "100", "--d", "1", "--delta", "3",
        "--r", "0.5", "--r-mult", "1", "--trials", "2",
    ])
    assert code == 2
    assert "invalid configuration" in capsys.readouterr().err
    code = main([
        "lowerbound", "--n", "500", "--d", "2", "--r", "0.3", "--r-mult", "50",
        "--trials", "1",
    ])
    assert code == 2
    assert "invalid configuration" in capsys.readouterr().err

    # concentration precondition violation
    code = main(["concentration", "--n", "10", "--a", "0.0001", "--trials", "2"])
    assert code == 2


def test_audit_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "trial", "--n", "100", "--d", "1", "--r", "0.5", "--no-event-a",
        ])
    assert exc.value.code == 2
    assert "--no-event-a" in capsys.readouterr().err


def test_diameter_cutoff_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "lowerbound", "--n", "100", "--d", "2", "--r", "0.5",
            "--exact-diameter-cutoff", "10",
        ])
    assert exc.value.code == 2
    assert "--exact-diameter-cutoff" in capsys.readouterr().err


def test_stdout_emission(capsys):
    code = main([
        "trial", "--n", "1", "--d", "1", "--delta", "3", "--family", "path",
        "--r", "0.5", "--format", "json",
    ])
    assert code == 0
    assert '"status": "success"' in capsys.readouterr().out
