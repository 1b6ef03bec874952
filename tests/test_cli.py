import json
import subprocess
import sys

import numpy as np
import pytest

import strata_bounds as sb
from strata_bounds.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def sample_csv(tmp_path):
    config = sb.DgpConfig(n=400, shares=(0.5, 0.0, 0.5), replications=1,
                          base_seed=3)
    table = sb.dgp_sample(config, 0)
    path = tmp_path / "data.csv"
    table.to_csv(str(path))
    return config, table, str(path)


def write_nuisance_csv(path, table, bundle, u_grid=np.linspace(0.01, 0.99, 99)):
    rows = np.arange(table.n)
    cols = {"m": bundle.m, "s0": bundle.s0, "s1": bundle.s1}
    for u in u_grid:
        cols[f"q_1_u{u:.6f}"] = bundle.quantile(rows, 1, np.full(table.n, u))
        cols[f"q_0_u{u:.6f}"] = bundle.quantile(rows, 0, np.full(table.n, u))
        for j in (0, 1):
            for d in (0, 1):
                cols[f"b_{j}_{d}_u{u:.6f}"] = bundle.trunc_mean(
                    rows, j, d, np.full(table.n, u))
    names = list(cols)
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for i in range(table.n):
            fh.write(",".join(repr(float(cols[c][i])) for c in names) + "\n")


class TestEstimate:
    def test_round_trip_against_library(self, capsys, tmp_path, sample_csv):
        config, table, path = sample_csv
        code, out, err = run_cli(capsys, "estimate", path, "--method",
                                 "sharp,switch", "--seed", "11", "--folds", "3")
        assert code == 0
        payload = json.loads(out)
        assert [rec["method"] for rec in payload] == ["sharp", "switch"]
        # identical library-side call: same learners, folds, and seed
        from strata_bounds.nuisance import CellSpec, LearnerSpec, crossfit
        bundle = crossfit(table, LearnerSpec(cells=CellSpec(), folds=3,
                                             seed=11))
        want = sb.estimate_sharp(table, bundle, sb.EstimationConfig())
        assert payload[0]["estimate_lower"] == want.lower
        assert payload[0]["estimate_upper"] == want.upper
        assert "resolved_config" in err

    def test_external_nuisance_file(self, capsys, tmp_path, sample_csv):
        config, table, path = sample_csv
        bundle = sb.oracle_nuisances(config)(table)
        npath = tmp_path / "nuis.csv"
        write_nuisance_csv(str(npath), table, bundle)
        code, out, _ = run_cli(capsys, "estimate", path, "--method", "smooth",
                               "--h", "0.05", "--nuisance-file", str(npath),
                               "--nuisance-oracle")
        assert code == 0
        rec = json.loads(out)[0]
        direct = sb.estimate_smooth(table, bundle, sb.GFamily(h=0.05),
                                    sb.EstimationConfig())
        # the file carries the surfaces on a level grid, so agreement is
        # up to interpolation error
        assert rec["estimate_lower"] == pytest.approx(direct.lower, abs=0.02)
        assert rec["h"] == 0.05

    def test_trim_with_everything_indifferent_exits_3(self, capsys, tmp_path):
        n = 40
        rng = np.random.default_rng(0)
        d = (rng.random(n) < 0.5).astype(int)
        table = sb.ObservationTable(y=rng.normal(size=n), s=np.ones(n, int),
                                    d=d, x=np.zeros((n, 1)),
                                    weight=np.ones(n))
        dpath = tmp_path / "d.csv"
        table.to_csv(str(dpath))
        npath = tmp_path / "n.csv"
        with open(npath, "w") as fh:
            fh.write("m,s0,s1,q_1_u0.5,q_0_u0.5,b_1_1_u0.5,b_0_1_u0.5,"
                     "b_1_0_u0.5,b_0_0_u0.5\n")
            for _ in range(n):
                fh.write("0.5,0.6,0.6,0.0,0.0,0.0,0.0,0.0,0.0\n")
        code, out, err = run_cli(capsys, "estimate", str(dpath), "--method",
                                 "trim", "--nuisance-file", str(npath),
                                 "--nuisance-oracle")
        assert code == 3
        assert json.loads(err.splitlines()[-1])["error"] == "AllTrimmedError"

    def test_switch_auto_rho_echoed(self, capsys, sample_csv):
        config, table, path = sample_csv
        code, out, _ = run_cli(capsys, "estimate", path, "--method", "switch",
                               "--rho", "auto", "--folds", "2")
        assert code == 0
        rec = json.loads(out)[0]
        assert rec["diagnostics"]["rho"] == pytest.approx(
            sb.default_rho(table.n))

    def test_validation_failure_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,s,d,weight,x1\n,1,0,1.0,0.1\n1.0,1,1,1.0,0.2\n")
        code, _, err = run_cli(capsys, "estimate", str(path))
        assert code == 2
        assert json.loads(err.splitlines()[-1])["error"] == "ValidationFailed"

    def test_group_column(self, capsys, sample_csv):
        config, table, path = sample_csv
        code, out, _ = run_cli(capsys, "estimate", path, "--method", "sharp",
                               "--group-col", "x1", "--folds", "2")
        assert code == 0
        payload = json.loads(out)
        groups = [rec["group"] for rec in payload if "group" in rec]
        assert sorted(groups) == [-1.0, 1.0]

    def test_folds_default_and_config_file(self, capsys, tmp_path, sample_csv):
        _, _, path = sample_csv
        code, default_out, _ = run_cli(capsys, "estimate", path)
        assert code == 0
        _, explicit_out, _ = run_cli(capsys, "estimate", path, "--folds", "5")
        assert default_out == explicit_out
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"folds": 3}))
        code, file_out, _ = run_cli(capsys, "estimate", path, "--config", str(cfg))
        assert code == 0
        _, flag_out, _ = run_cli(capsys, "estimate", path, "--folds", "3")
        assert file_out == flag_out
        assert file_out != default_out

    # data row 10 of a valid file replaced, and the message it must give
    MALFORMED_ROWS = {
        "empty": ("0.5,0.4,0.6,", "could not convert string ''"),
        "NA": ("0.5,0.4,0.6,NA", "could not convert string 'NA'"),
        "ragged": ("0.5,0.4,0.6", "number of columns changed"),
        "hash": ("#0.5,0.4,0.6,0.0", "could not convert string '#0.5'"),
        "blank": ("\n0.5,0.4,0.6,0.0", "blank line at row 10"),
        "nan_grid": ("0.5,0.4,0.6,nan", "q_0_u0.5 is NaN at row 10"),
    }

    @pytest.mark.parametrize("case", ["missing", "row_count", "grid_header",
                                      *MALFORMED_ROWS])
    def test_bad_nuisance_file_exits_2(self, capsys, tmp_path, sample_csv, case):
        _, table, path = sample_csv
        npath = tmp_path / "nuis.csv"
        n_rows = table.n - 1 if case == "row_count" else table.n
        level = "bad" if case == "grid_header" else "0.5"
        if case != "missing":
            rows = ["0.5,0.4,0.6,0.0"] * n_rows
            if case in self.MALFORMED_ROWS:
                rows[10] = self.MALFORMED_ROWS[case][0]
            npath.write_text(f"m,s0,s1,q_0_u{level}\n" + "\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, "estimate", path, "--nuisance-file",
                                 str(npath))
        assert code == 2 and out == ""
        rec = json.loads(err.splitlines()[-1])
        assert rec["error"] == ("FileNotFoundError" if case == "missing"
                                else "ValueError")
        if case in self.MALFORMED_ROWS:
            assert self.MALFORMED_ROWS[case][1] in rec["message"]

    def test_nan_nuisance_exits_2(self, capsys, tmp_path, sample_csv):
        config, table, path = sample_csv
        npath = tmp_path / "nuis.csv"
        write_nuisance_csv(str(npath), table, sb.oracle_nuisances(config)(table),
                           u_grid=np.linspace(0.1, 0.9, 9))
        lines = npath.read_text().splitlines()
        assert lines[0].startswith("m,s0,")
        fields = lines[8].split(",")   # data row 7
        fields[1] = "nan"
        lines[8] = ",".join(fields)
        npath.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "estimate", path, "--nuisance-file",
                                 str(npath), "--nuisance-oracle")
        assert code == 2 and out == ""
        assert "s0 is not finite at row 7" in json.loads(err.splitlines()[-1])["message"]

    @pytest.mark.parametrize("argv,message", [
        (("--method", "switch", "--rho", "abc"), "could not convert"),
        (("--method", "smooth", "--h", "0"), "h must be positive"),
        (("--method", "sharp", "--nuisance-file"), "no quantile grid"),
    ], ids=["rho_abc", "h_zero", "no_grid"])
    def test_estimator_value_error_exits_2(self, capsys, tmp_path, sample_csv,
                                           argv, message):
        _, table, path = sample_csv
        if argv[-1] == "--nuisance-file":
            npath = tmp_path / "nuis.csv"
            npath.write_text("m,s0,s1\n" + "0.5,0.4,0.6\n" * table.n)
            argv = argv + (str(npath),)
        code, out, err = run_cli(capsys, "estimate", path, "--folds", "2", *argv)
        assert code == 2 and out == ""
        rec = json.loads(err.splitlines()[-1])
        assert rec["error"] == "ValueError" and message in rec["message"]

    @pytest.mark.parametrize("argv,message", [
        (("--method", "smooth", "--dominance"), "method smooth"),
        (("--method", "smooth", "--config", "dominance.json"), "method smooth"),
        (("--method", "sharp,trim", "--stratum", "nt", "--dominance"),
         "never-taker stratum"),
    ], ids=["smooth", "smooth_config_file", "nt"])
    def test_unused_dominance_exits_2(self, capsys, tmp_path, sample_csv,
                                      argv, message):
        _, _, path = sample_csv
        cfg = tmp_path / "dominance.json"
        cfg.write_text(json.dumps({"dominance": True}))
        argv = [str(cfg) if a == "dominance.json" else a for a in argv]
        code, out, err = run_cli(capsys, "estimate", path, "--folds", "2", *argv)
        assert code == 2 and out == ""
        rec = json.loads(err.splitlines()[-1])
        assert rec["error"] == "InvalidConfig"
        assert "dominance" in rec["message"] and message in rec["message"]

    def test_dominance_kept_when_a_listed_method_uses_it(self, capsys,
                                                        sample_csv):
        _, _, path = sample_csv
        argv = ("estimate", path, "--folds", "2", "--method", "sharp,smooth")
        code, out, _ = run_cli(capsys, *argv, "--dominance")
        assert code == 0
        _, plain_out, _ = run_cli(capsys, *argv)
        dom, plain = json.loads(out), json.loads(plain_out)
        assert dom[0]["estimate_lower"] != plain[0]["estimate_lower"]
        assert dom[1] == plain[1]

    @pytest.mark.parametrize("column,rule", [("x", "finite covariates"),
                                             ("weight", "finite weights")])
    def test_non_finite_input_exits_2(self, capsys, tmp_path, sample_csv,
                                      column, rule):
        _, table, _ = sample_csv
        x, w = table.x.copy(), table.weight.copy()
        if column == "x":
            x[5, 1] = np.inf
        else:
            w[5] = np.nan
        path = tmp_path / "bad.csv"
        sb.ObservationTable(table.y, table.s, table.d, x, w).to_csv(str(path))
        code, out, err = run_cli(capsys, "estimate", str(path))
        assert code == 2 and out == ""
        rec = json.loads(err.splitlines()[-1])
        assert rec["error"] == "ValidationFailed" and rule in rec["message"]


class TestSimulate:
    def test_deterministic_across_thread_counts(self, capsys, tmp_path):
        outs = {}
        for threads in (1, 2):
            m = tmp_path / f"metrics_{threads}.csv"
            p = tmp_path / f"power_{threads}.csv"
            code, _, _ = run_cli(capsys, "simulate", "--panel", "a", "--n",
                                 "120", "--reps", "16", "--seed", "7",
                                 "--threads", str(threads), "--out", str(m),
                                 "--power-out", str(p))
            assert code == 0
            outs[threads] = (m.read_bytes(), p.read_bytes())
        assert outs[1] == outs[2]

    def test_panel_preset_and_layout(self, capsys, tmp_path):
        m = tmp_path / "m.csv"
        p = tmp_path / "p.csv"
        code, _, _ = run_cli(capsys, "simulate", "--panel", "c", "--n", "100",
                             "--reps", "8", "--seed", "1", "--h", "0.05",
                             "--out", str(m), "--power-out", str(p))
        assert code == 0
        lines = m.read_text().splitlines()
        assert lines[0].startswith("panel,method,n,")
        assert all(line.startswith("c,") for line in lines[1:])

    def test_config_file_with_custom_shares(self, capsys, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"shares": [0.6, 0.2, 0.2], "reps": 6,
                                   "n": [80], "h": [0.05],
                                   "power_points": 3, "seed": 2}))
        m = tmp_path / "m.csv"
        p = tmp_path / "p.csv"
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg),
                               "--out", str(m), "--power-out", str(p))
        assert code == 0
        lines = m.read_text().splitlines()
        assert all(line.startswith("custom,") for line in lines[1:])
        n_power = len(p.read_text().splitlines()) - 1
        assert n_power % 3 == 0

    def test_default_output_paths_and_bad_config(self, capsys, tmp_path,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(capsys, "simulate", "--panel", "a", "--n", "50",
                               "--reps", "2")
        assert code == 0
        assert (tmp_path / "metrics.csv").exists()
        code, _, err = run_cli(capsys, "simulate", "--config", "/dev/null")
        assert code == 2


class TestBoundsCurve:
    def test_widening_and_limit(self, capsys):
        code, out, _ = run_cli(capsys, "bounds-curve", "--panel", "a",
                               "--dgp-n", "800", "--h", "0.2,0.05,1e-9",
                               "--seed", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("h,lower,upper")
        rows = [line.split(",") for line in lines[1:]]
        lowers = [float(r[1]) for r in rows]
        uppers = [float(r[2]) for r in rows]
        assert lowers[0] <= lowers[1] <= lowers[2]
        assert uppers[0] >= uppers[1] >= uppers[2]

    def test_empty_grid_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "bounds-curve", "--h", "")
        assert code == 2
        assert json.loads(err.splitlines()[-1])["error"] == "EmptyGrid"

    def test_invalid_h_exits_2_before_any_row(self, capsys):
        code, out, err = run_cli(capsys, "bounds-curve", "--dgp-n", "400",
                                 "--h", "0.05,0")
        assert code == 2
        assert out == ""
        assert json.loads(err.splitlines()[-1])["error"] == "ValueError"

    def test_data_file_matches_estimate(self, capsys, sample_csv):
        config, table, path = sample_csv
        flags = ("--h", "0.05", "--seed", "11", "--folds", "3")
        code, out, _ = run_cli(capsys, "bounds-curve", "--data", path, *flags)
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        code, est_out, _ = run_cli(capsys, "estimate", path, "--method",
                                   "smooth", *flags)
        assert code == 0
        rec = json.loads(est_out)[0]
        assert float(row[1]) == rec["estimate_lower"]
        assert float(row[2]) == rec["estimate_upper"]
        assert row[5] == ""


def _no_control_rows(table, path):
    sb.ObservationTable(table.y, table.s, np.ones(table.n, int), table.x,
                        table.weight).to_csv(str(path))


def _unparsable_y(table, path):
    table.to_csv(str(path))
    lines = path.read_text().splitlines()
    i = next(k for k in range(1, len(lines)) if lines[k].split(",")[0] != "")
    lines[i] = "abc" + lines[i][lines[i].index(","):]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("command", ["estimate", "bounds-curve"])
@pytest.mark.parametrize("write, code, kind", [
    (_no_control_rows, 3, "EmptyCellError"),
    (_unparsable_y, 2, "InvalidData"),
], ids=["no_control_rows", "unparsable_y"])
def test_bad_input_same_for_both_commands(capsys, tmp_path, sample_csv,
                                          command, write, code, kind):
    config, table, _ = sample_csv
    path = tmp_path / "bad.csv"
    write(table, path)
    data = [str(path)] if command == "estimate" else ["--data", str(path)]
    got, _, err = run_cli(capsys, command, *data, "--h", "0.05", "--folds", "3")
    assert got == code
    assert json.loads(err.splitlines()[-1])["error"] == kind


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "strata_bounds.cli",
                               "--version"], capture_output=True, text=True)
        assert proc.returncode == 0

    def test_import_leaves_scipy_integrate_unloaded(self):
        # population targets are plug-ins on covariate atoms; no adaptive
        # quadrature is paid for at import
        code = ("import sys, strata_bounds, strata_bounds.cli; "
                "print('scipy.integrate' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
