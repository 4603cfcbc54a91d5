import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import rsoskit
from oracles import boltzmann_weight
from rsoskit import elliptic, fusion, rsos, suites
from rsoskit.cli import main, run_verify
from rsoskit.elliptic import EllipticParams
from rsoskit.errors import InvalidConfig, InvalidTau, UnknownSuite
from rsoskit.groupoid import Arrow, ModelKind, WeightPoint, eps
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


def test_tolerance_override_reaches_every_case():
    cases = run_suite("all", RunConfig(tolerance=1e-3))
    golden = json.loads((Path(__file__).parent / "data"
                         / "verify_all_n2r5.json").read_text())
    assert [(c.name, c.residual) for c in cases] == [
        (c["name"], c["residual"]) for c in golden["cases"]]
    assert {c.tolerance for c in cases} == {1e-3}


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


def test_verify_all_report_matches_golden_n3r7():
    # tests/data/verify_all_n3r7.json pins the rank-3 paths at the largest
    # pinned alcove, where the batched R-matrix tables are widest
    golden = Path(__file__).parent / "data" / "verify_all_n3r7.json"
    report = run_verify("all", RunConfig(3, 7))
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == golden.read_text()


def test_verify_all_report_matches_golden_n4r6():
    # tests/data/verify_all_n4r6.json pins rank 4: its partition-state-dimension
    # case builds a graded transfer matrix at cols = 4
    golden = Path(__file__).parent / "data" / "verify_all_n4r6.json"
    report = run_verify("all", RunConfig(4, 6))
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == golden.read_text()


def test_verify_all_report_matches_golden_n3r7_generic_base(tmp_path):
    # tests/data/verify_all_n3r7_base.json pins the `*-sos-generic-base`
    # cases, the only ones that shift and canonicalize complex-base points
    golden = Path(__file__).parent / "data" / "verify_all_n3r7_base.json"
    code, text = run_cli(["verify", "all", "--n", "3", "--r", "7",
                          "--base", "0.29,0.03;0.11;0"], tmp_path, "b.json")
    assert code == 0
    assert text == golden.read_text()


def test_star_triangle_report_matches_golden_n3r60(tmp_path):
    # tests/data/verify_star_triangle_n3r60.json pins a check that spans
    # several runs of points and several chunks of spectral pairs
    golden = (Path(__file__).parent / "data"
              / "verify_star_triangle_n3r60.json")
    code, text = run_cli(["verify", "star-triangle", "--n", "3", "--r", "60"],
                         tmp_path, "st.json")
    assert code == 0
    assert text == golden.read_text()


# Bracket calls per suite at seed 0: one per R-matrix table, and a table holds
# every spectral parameter of its check (theta: [h], [-h] and [r]; unitarity:
# every sample; dybe: every sample; star-triangle: one for all its pairs;
# restriction: one for all its z; exactness: fusion_bases' r_minus1 and r_reg1
# tables, its one call for the brackets of the explicit vectors, and the
# residue oracle's table; transfer-commute: one for the chain with loop
# sections (the 3-site chain at n = 3, the 2-site one at n = 2), all its sites
# at all 2 * TRANSFER_PAIRS points from one table, the other chain evaluating
# nothing; partition: per width, the row-to-row table, and the widest
# chain's one, whose prefixes are the narrower chains)
BRACKET_CALLS = {
    (3, 7): {"theta": 1, "unitarity": 1, "dybe": 1, "star-triangle": 1,
             "restriction": 1, "exactness": 4, "transfer-commute": 1,
             "characters": 0, "fusion": 0, "spectrum": 0},
    (2, 5): {"theta": 1, "unitarity": 1, "dybe": 1, "star-triangle": 1,
             "restriction": 1, "exactness": 4, "transfer-commute": 1,
             "characters": 0, "fusion": 0, "spectrum": 0, "partition": 4},
}


@pytest.mark.parametrize("n,r", list(BRACKET_CALLS))
def test_bracket_calls_per_suite(n, r, monkeypatch):
    calls, thetas = [], []
    real, real_theta = elliptic.bracket, elliptic.theta
    # fusion and rsos import bracket by name: their calls are counted there
    for module in (elliptic, fusion, rsos):
        monkeypatch.setattr(module, "bracket",
                            lambda z, p: calls.append(z) or real(z, p))
    monkeypatch.setattr(elliptic, "theta",
                        lambda z, tau: thetas.append(z) or real_theta(z, tau))
    config = RunConfig(n, r)
    config.params()  # its check of theta(gamma) is no suite's
    counts = {}
    for name in BRACKET_CALLS[n, r]:
        del calls[:], thetas[:]
        run_suite(name, config)
        counts[name] = len(calls)
        if name == "theta":  # every sample argument and 0, then the brackets
            assert len(thetas) == 2
            assert len(thetas[0]) == 4 * suites.THETA_SAMPLES + 1
    assert counts == BRACKET_CALLS[n, r]


def test_params_are_built_once_and_refused_at_the_first_call():
    config = RunConfig(3, 7)
    params = config.params()
    run_suite("unitarity", config)
    assert config.params() is params
    assert config == RunConfig(3, 7) and hash(config) == hash(RunConfig(3, 7))
    # the checks of EllipticParams still run at the first call, and refuse
    # again at the next
    for bad in (RunConfig(gamma_override=0j), RunConfig(tau=950j)):
        for _ in range(2):
            with pytest.raises((InvalidConfig, InvalidTau)):
                bad.params()


# a child process imports the same rsoskit as this one, installed or not
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    str(Path(rsoskit.__file__).parent.parent), os.environ.get("PYTHONPATH")]))}


def test_tiny_tau_writes_one_error_line():
    # the series cut overflows to inf terms without a numpy warning
    proc = subprocess.run(
        [sys.executable, "-m", "rsoskit", "verify", "theta", "--tau",
         "0,1e-320"], capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 2
    assert proc.stderr == ("error: THETA_TERM_BUDGET: inf series terms per "
                           "entry requested, limit 10000\n")


@pytest.mark.parametrize("n,r", [(2, 5), (3, 5), (3, 6)])
def test_boltzmann_table_matches_golden(tmp_path, n, r):
    # tests/data/boltzmann_table_n{n}r{r}.csv pins the face-weight table bytes
    golden = Path(__file__).parent / "data" / f"boltzmann_table_n{n}r{r}.csv"
    code, text = run_cli(["compute", "boltzmann-table", "--n", str(n),
                          "--r", str(r), "--z", "0.3,0.1"], tmp_path, "b.csv")
    assert code == 0
    assert text == golden.read_text()


def test_boltzmann_table_is_the_same_across_table_runs(tmp_path, monkeypatch):
    # three alcove points per run cut the ten points of (3,6) into four runs
    monkeypatch.setattr(elliptic, "TABLE_BUDGET", 3 * 3 ** 4)
    runs = []
    r_table = elliptic.r_table

    def counted(z, points, params):
        runs.append(points)
        return r_table(z, points, params)

    monkeypatch.setattr(elliptic, "r_table", counted)
    golden = Path(__file__).parent / "data" / "boltzmann_table_n3r6.csv"
    code, text = run_cli(["compute", "boltzmann-table", "--n", "3", "--r", "6",
                          "--z", "0.3,0.1"], tmp_path, "b.csv")
    assert code == 0
    assert len(runs) >= 3
    assert text == golden.read_text()


@pytest.mark.parametrize("n,r", [(2, 5), (3, 5), (3, 7)])
def test_boltzmann_table_rows_are_boltzmann_weights(tmp_path, n, r):
    code, text = run_cli(["compute", "boltzmann-table", "--n", str(n),
                          "--r", str(r), "--z", "0.31,0.07"], tmp_path, "b.csv")
    assert code == 0
    kind, params = ModelKind.rsos(n, r), EllipticParams.rsos(n, r, 0.8j)
    rows = [line.split(",") for line in text.splitlines()[1:]]
    # every face: two admissible two-step paths from a of the same weight
    two_step = lambda a, s, t: (kind.step_allowed(a, s)
                                and kind.step_allowed(a + eps(n, s), t))
    faces = [[";".join(map(str, a.offset)), str(k), str(l), str(i), str(j)]
             for a in kind.alcove()
             for k, l, i, j in product(range(1, n + 1), repeat=4)
             if sorted((i, j)) == sorted((k, l))
             and two_step(a, k, l) and two_step(a, i, j)]
    assert sorted(row[:5] for row in rows) == sorted(faces)
    for height, *steps, re, im in rows:
        a = WeightPoint.integer(tuple(map(int, height.split(";"))))
        k, l, i, j = map(int, steps)
        alpha, gamma = Arrow(a, eps(n, k)), Arrow(a, eps(n, i))
        beta, delta = Arrow(alpha.target, eps(n, l)), Arrow(gamma.target, eps(n, j))
        w = boltzmann_weight(0.31 + 0.07j, alpha, beta, gamma, delta, kind,
                             params)
        assert (float(re), float(im)) == (w.real, w.imag)


@pytest.mark.parametrize("args", [
    ["verify", "theta"],
    # the cases fail, yet the unwritable output decides the status
    ["verify", "unitarity", "--tolerance", "1e-30"],
    ["compute", "fusion-table", "--r", "5"],
])
def test_unwritable_output_exits_2_with_one_error_line(args, tmp_path, capsys):
    path = tmp_path / "missing" / "x.out"
    assert main(args + ["-o", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {path}: ")
    assert captured.err.count("\n") == 1


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


@pytest.mark.parametrize("size", [["--rows", "-1", "--cols", "2"],
                                  ["--cols", "-2"], ["--cols", "0"],
                                  ["--rows", "0", "--cols", "0"]])
def test_compute_partition_degenerate_size_exits_2(size, capsys):
    assert main(["compute", "partition"] + size) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rsoskit", "compute", "fusion-table",
         "--r", "4"], capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0
    assert proc.stdout.startswith("p,q,s,N")


def test_base_point_rank_validated():
    assert main(["verify", "dybe", "--n", "3", "--base", "0.29"]) == 2


def test_singular_base_exits_2_naming_its_pair(capsys):
    # a_1 = a_2 at the base: the table of the base samples refuses [a_1 - a_2]
    assert main(["verify", "dybe", "--n", "2", "--r", "5",
                 "--base", "0.1;0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: denominator [a_1-a_2] has modulus 9.75e-17\n"


@pytest.mark.parametrize("args", [
    ["verify", "theta", "--gamma", "0,0"],
    ["verify", "theta", "--gamma", "1,0"],
    ["verify", "theta", "--base", "0.1;x"],
    ["verify", "theta", "--gamma", "nan,0"],
    ["verify", "theta", "--tau", "0,1e-4"],
    ["verify", "theta", "--tolerance", "nan"],
    ["verify", "unitarity", "--tolerance", "inf"],
    ["verify", "unitarity", "--tolerance", "1e400"],
    ["verify", "unitarity", "--n", "8", "--r", "40"],
    ["verify", "spectrum", "--n", "3", "--r", "200"],
    ["verify", "transfer-commute", "--n", "3", "--r", "200"],
    ["verify", "transfer-commute", "--n", "3", "--r", "85"],
    ["compute", "partition", "--z", "0,200"],
    ["compute", "boltzmann-table", "--z", "0,200"],
    ["compute", "fusion-table", "--r", "400"],
    ["verify", "partition", "--n", "3", "--r", "85"],
])
def test_rejected_configurations_exit_2_with_one_error_line(args, capsys):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("args,status", [
    (["verify", "theta", "--tau", "0,230"], 2),
    (["verify", "unitarity", "--tau", "0,950"], 2),
    (["verify", "all", "--tau", "0,1e6"], 2),
    # the series and the quasi-period factor reduce Re tau mod 8 alike
    (["verify", "all", "--tau", "1e300,1"], 0),
    # theta-period-tau is relative to the values of modulus exp(pi Im tau)
    (["verify", "theta", "--tau", "0,2"], 0),
])
def test_extreme_tau_ends_in_a_status_not_a_traceback(args, status, capsys):
    assert main(args) == status
    err = capsys.readouterr().err
    if status == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == ""


@pytest.mark.parametrize("tau,status", [("0,903", 0), ("0,905", 2),
                                        ("0,940", 2)])
def test_subnormal_theta_prime_at_zero_is_refused(tau, status, capsys):
    # |theta'(0, tau)| is 2.8e-308 at Im tau = 904 and subnormal from 905:
    # every bracket divides by it
    assert main(["verify", "unitarity", "--tau", tau]) == status
    err = capsys.readouterr().err
    assert err.count("\n") == (status == 2)
    if status == 2:
        assert err.startswith("error: theta'(0, tau) = ")


def test_run_config_shares_one_model_across_suites():
    config = RunConfig(n=3, r=5)
    assert config.kind() is config.kind()
    assert config == RunConfig(n=3, r=5)
