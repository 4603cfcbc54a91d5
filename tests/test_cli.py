import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rsoskit
from rsoskit.cli import main, run_verify
from rsoskit.errors import InvalidConfig, UnknownSuite
from rsoskit.suites import RunConfig, run_suite


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    code = main(args + ["-o", str(out)])
    return code, out.read_text()


def test_verify_reports_schema_and_exit_code(tmp_path):
    code, text = run_cli(["verify", "unitarity", "--n", "2", "--r", "5",
                          "--seed", "7"], tmp_path, "u.json")
    assert code == 0
    report = json.loads(text)
    assert set(report) == {"suite", "config", "cases", "max_residual", "passed"}
    assert report["passed"] is True
    assert report["cases"][0]["residual"] < 1e-9


def test_verify_exit_nonzero_when_tolerance_exceeded(tmp_path):
    code, text = run_cli(["verify", "unitarity", "--tolerance", "1e-30"],
                         tmp_path, "fail.json")
    assert code == 1
    assert json.loads(text)["passed"] is False


def test_verify_all_aggregates(tmp_path):
    code, text = run_cli(["verify", "all", "--n", "2", "--r", "4"],
                         tmp_path, "all.json")
    assert code == 0
    report = json.loads(text)
    names = {c["name"] for c in report["cases"]}
    assert {"theta-odd", "fusion-rules-r4", "partition-state-dimension"} <= names


def test_unknown_suite_rejected():
    with pytest.raises(UnknownSuite):
        run_suite("nonsense", RunConfig())


def test_invalid_config_rejected():
    with pytest.raises(InvalidConfig):
        RunConfig(n=2, r=2)
    with pytest.raises(InvalidConfig):
        RunConfig(tau=-1j)
    assert main(["verify", "theta", "--tau", "0,-0.8"]) == 2


def test_byte_identical_reports(tmp_path):
    args = ["verify", "theta", "--n", "2", "--r", "5", "--seed", "3"]
    _, text1 = run_cli(args, tmp_path, "a.json")
    _, text2 = run_cli(args, tmp_path, "b.json")
    assert text1 == text2


def test_verify_all_report_matches_golden():
    # tests/data/verify_all_n2r5.json pins the report bytes: refactors of the
    # graded and transfer layers must leave every residual bit-identical
    golden = Path(__file__).parent / "data" / "verify_all_n2r5.json"
    report = run_verify("all", RunConfig(2, 5))
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == golden.read_text()


def test_fusion_and_characters_report_matches_golden_r11():
    # tests/data/verify_fusion_characters_r11.json pins the report bytes of
    # the convolution-heavy suites at (2, 11)
    golden = Path(__file__).parent / "data" / "verify_fusion_characters_r11.json"
    config = RunConfig(2, 11)
    report = {s: run_verify(s, config) for s in ("fusion", "characters")}
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == golden.read_text()


def test_verify_all_report_matches_golden_n3r5():
    # tests/data/verify_all_n3r5.json pins the rank-3 paths: fusion bases,
    # restriction, star-triangle and the partition row states at n = 3
    golden = Path(__file__).parent / "data" / "verify_all_n3r5.json"
    report = run_verify("all", RunConfig(3, 5))
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == golden.read_text()


@pytest.mark.parametrize("n,r", [(2, 5), (3, 5), (3, 6)])
def test_boltzmann_table_matches_golden(tmp_path, n, r):
    # tests/data/boltzmann_table_n{n}r{r}.csv pins the face-weight table bytes
    golden = Path(__file__).parent / "data" / f"boltzmann_table_n{n}r{r}.csv"
    code, text = run_cli(["compute", "boltzmann-table", "--n", str(n),
                          "--r", str(r), "--z", "0.3,0.1"], tmp_path, "b.csv")
    assert code == 0
    assert text == golden.read_text()


def test_gamma_override_accepted(tmp_path):
    code, text = run_cli(["verify", "unitarity", "--n", "2", "--r", "5",
                          "--gamma", "0.21,0.01"], tmp_path, "g.json")
    assert code == 0
    assert json.loads(text)["config"]["gamma"] == [0.21, 0.01]


def test_compute_character_csv(tmp_path):
    code, text = run_cli(["compute", "character", "--n", "2", "--r", "5"],
                         tmp_path, "c.csv")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "source,shift,coeff"
    assert len(lines) == 7  # header + six arrows of the vector character


def test_compute_character_json_and_reps(tmp_path):
    code, text = run_cli(["compute", "character", "--rep", "sym", "--p", "3",
                          "--format", "json"], tmp_path, "s.json")
    assert code == 0
    rows = json.loads(text)
    assert len(rows) == 4 and all(r["coeff"] == 1 for r in rows)


def test_compute_boltzmann_table(tmp_path):
    code, text = run_cli(["compute", "boltzmann-table", "--z", "0.3,0"],
                         tmp_path, "b.csv")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "a,in1,in2,out1,out2,weight_re,weight_im"
    assert len(lines) > 10


def test_compute_fusion_table(tmp_path):
    code, text = run_cli(["compute", "fusion-table", "--r", "4"],
                         tmp_path, "f.csv")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "p,q,s,N"
    assert len(lines) == 1 + 27
    assert lines[1] == "0,0,0,1"


def test_compute_spectrum_contains_golden_ratio(tmp_path):
    code, text = run_cli(["compute", "spectrum", "--n", "2", "--r", "5",
                          "--k", "1"], tmp_path, "spec.csv")
    assert code == 0
    assert "1.6180339887" in text


def test_compute_partition_report(tmp_path):
    code, text = run_cli(["compute", "partition", "--n", "2", "--r", "4",
                          "--cols", "2", "--rows", "2", "--z", "0.3,0"],
                         tmp_path, "p.json")
    assert code == 0
    doc = json.loads(text)
    assert set(doc) == {"value", "oracle_value", "rel_err"}
    assert doc["rel_err"] < 1e-9


def test_console_entry_point_runs():
    # the child imports the same rsoskit as this process, installed or not
    src = str(Path(rsoskit.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [
               src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "rsoskit", "compute", "fusion-table",
         "--r", "4"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("p,q,s,N")


def test_base_point_rank_validated():
    assert main(["verify", "dybe", "--n", "3", "--base", "0.29"]) == 2
