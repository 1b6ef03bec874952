import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import strata_bounds as sb
from strata_bounds.cli import main
from strata_bounds.simulation import METHODS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _no_crossfit(*args):
    """Stands in for ``cli.crossfit`` where an error must come before any
    fit."""
    raise AssertionError("crossfit ran")


def _no_experiment(*args, **kwargs):
    """Stands in for ``cli.run_experiment`` where an error must come before
    any experiment runs."""
    raise AssertionError("run_experiment ran")


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

    @pytest.mark.parametrize("variant", ["drop", "retain"])
    def test_trim_with_zero_weight_survivors_exits_3(self, capsys, tmp_path,
                                                     variant):
        """A panel-b draw weighted only on its selection-indifferent rows:
        every row that trimming keeps weighs zero, so there is no share to
        divide by (not a null bound with exit 0, nor a NaN root solve)."""
        config = sb.DgpConfig(n=400, shares=sb.PANEL_SHARES["b"],
                              replications=1, base_seed=3)
        table = sb.dgp_sample(config, 0)
        bundle = sb.oracle_nuisances(config)(table)
        table = sb.ObservationTable(table.y, table.s, table.d, table.x,
                                    (table.x[:, 0] == 0).astype(float))
        dpath, npath = tmp_path / "d.csv", tmp_path / "n.csv"
        table.to_csv(str(dpath))
        write_nuisance_csv(str(npath), table, bundle)
        code, out, err = run_cli(capsys, "estimate", str(dpath), "--method",
                                 "trim", "--trim-variant", variant,
                                 "--nuisance-file", str(npath),
                                 "--nuisance-oracle")
        assert code == 3, out
        assert json.loads(err.splitlines()[-1])["error"] == "ZeroShareError"

    def test_switch_auto_rho_echoed(self, capsys, sample_csv):
        config, table, path = sample_csv
        code, out, _ = run_cli(capsys, "estimate", path, "--method", "switch",
                               "--rho", "auto", "--folds", "2")
        assert code == 0
        rec = json.loads(out)[0]
        assert rec["diagnostics"]["rho"] == pytest.approx(
            sb.default_rho(table.n))

    def test_switch_on_one_row_exits_2(self, capsys, tmp_path, sample_csv):
        # the default band log(n) is zero at n = 1
        config, table, _ = sample_csv
        one = table.select(np.flatnonzero(table.s == 1)[:1])
        dpath, npath = tmp_path / "one.csv", tmp_path / "nuis.csv"
        one.to_csv(str(dpath))
        write_nuisance_csv(str(npath), one, sb.oracle_nuisances(config)(one))
        code, out, err = run_cli(capsys, "estimate", str(dpath), "--method",
                                 "switch", "--nuisance-file", str(npath))
        assert code == 2 and out == ""
        failure = json.loads(err.splitlines()[-1])
        assert failure["error"] == "ValueError"
        assert "n = 1" in failure["message"]

    def test_inefficient_never_taker_exits_3(self, capsys, tmp_path,
                                             sample_csv):
        config, table, path = sample_csv
        npath = tmp_path / "nuis.csv"
        write_nuisance_csv(str(npath), table, sb.oracle_nuisances(config)(table))
        code, out, err = run_cli(capsys, "estimate", path, "--method",
                                 "sharp,inefficient", "--stratum", "nt",
                                 "--nuisance-file", str(npath),
                                 "--nuisance-oracle")
        assert code == 3 and out == ""
        assert json.loads(err.splitlines()[-1])["error"] == "PartitionError"

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
                                      "grid_arm", *MALFORMED_ROWS])
    def test_bad_nuisance_file_exits_2(self, capsys, tmp_path, sample_csv, case):
        _, table, path = sample_csv
        npath = tmp_path / "nuis.csv"
        n_rows = table.n - 1 if case == "row_count" else table.n
        # an arm 2 grid column used to exit 1 with a KeyError
        grid = {"grid_header": "q_0_ubad", "grid_arm": "q_2_u0.5"}.get(
            case, "q_0_u0.5")
        if case != "missing":
            rows = ["0.5,0.4,0.6,0.0"] * n_rows
            if case in self.MALFORMED_ROWS:
                rows[10] = self.MALFORMED_ROWS[case][0]
            npath.write_text(f"m,s0,s1,{grid}\n" + "\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, "estimate", path, "--nuisance-file",
                                 str(npath))
        assert code == 2 and out == ""
        rec = json.loads(err.splitlines()[-1])
        assert rec["error"] == ("FileNotFoundError" if case == "missing"
                                else "ValueError")
        if case in self.MALFORMED_ROWS:
            assert self.MALFORMED_ROWS[case][1] in rec["message"]
        if case.startswith("grid_"):
            assert rec["message"].startswith(f"nuisance column {grid!r} ")

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

    @pytest.mark.parametrize("argv,knob", [
        (("--h", "0.05"), "h"),
        (("--eps-trim", "0.2"), "eps_trim"),
        (("--rho", "0.3"), "rho"),
        (("--method", "sharp,trim", "--rho", "auto"), "rho"),
        (("--config", "knobs.json"), "eps_trim"),
        (("--trim-variant", "retain"), "trim_variant"),
    ], ids=["h", "eps_trim", "rho", "rho_auto_with_trim", "config_file",
            "trim_variant"])
    def test_unused_knob_exits_2(self, capsys, tmp_path, sample_csv, argv,
                                 knob):
        _, _, path = sample_csv
        cfg = tmp_path / "knobs.json"
        cfg.write_text(json.dumps({"eps_trim": 0.2}))
        argv = [str(cfg) if a == "knobs.json" else a for a in argv]
        code, out, err = run_cli(capsys, "estimate", path, "--folds", "2",
                                 *argv)
        assert code == 2 and out == ""
        rec = json.loads(err.splitlines()[-1])
        assert rec["error"] == "InvalidConfig"
        assert rec["message"].startswith(f"{knob} ")

    @pytest.mark.parametrize("argv,knob", [
        (("--method", "switch", "--rho=-1"), "rho"),
        (("--method", "switch", "--rho", "nan"), "rho"),
        (("--method", "switch", "--rho", "inf"), "rho"),
        (("--method", "trim", "--eps-trim=-0.5"), "eps_trim"),
        (("--method", "trim", "--eps-trim", "nan"), "eps_trim"),
        (("--method", "trim", "--eps-trim", "inf"), "eps_trim"),
    ], ids=["rho_negative", "rho_nan", "rho_inf", "eps_trim_negative",
            "eps_trim_nan", "eps_trim_inf"])
    def test_band_width_out_of_range_exits_2(self, capsys, monkeypatch,
                                             sample_csv, argv, knob):
        # these used to exit 0: a negative or NaN width switched or trimmed
        # nothing, and rho inf switched every row; then they exited 2 only
        # after cross-fitting
        monkeypatch.setattr("strata_bounds.cli.crossfit", _no_crossfit)
        _, _, path = sample_csv
        code, out, err = run_cli(capsys, "estimate", path, "--folds", "2",
                                 *argv)
        assert code == 2 and out == ""
        rec = json.loads(err.splitlines()[-1])
        assert rec["error"] == "ValueError"
        assert rec["message"].startswith(f"{knob} must be a finite number >= 0")

    def test_side_hides_the_other_bound(self, capsys, sample_csv):
        _, _, path = sample_csv
        argv = ("estimate", path, "--folds", "2", "--method", "sharp,trim")
        _, both_out, _ = run_cli(capsys, *argv)
        both = json.loads(both_out)
        for side, hidden in (("l", "upper"), ("u", "lower")):
            code, out, _ = run_cli(capsys, *argv, "--side", side)
            assert code == 0
            for rec, full in zip(json.loads(out), both):
                assert rec == dict(full, **{f"estimate_{hidden}": None,
                                            f"se_{hidden}": None})

    def test_trim_variant_from_config_file(self, capsys, tmp_path, sample_csv):
        _, _, path = sample_csv
        cfg = tmp_path / "trim.json"
        cfg.write_text(json.dumps({"method": "trim", "trim_variant": "retain"}))
        code, file_out, _ = run_cli(capsys, "estimate", path, "--folds", "2",
                                    "--config", str(cfg))
        assert code == 0
        assert json.loads(file_out)[0]["diagnostics"]["variant"] == "retain"
        _, flag_out, _ = run_cli(capsys, "estimate", path, "--folds", "2",
                                 "--method", "trim", "--trim-variant", "retain")
        assert file_out == flag_out

    @pytest.mark.parametrize("argv,message", [
        (("--group-col", "x0"), "named x1..xp"),
        (("--group-col", "y"), "named x1..xp"),
    ], ids=["x0", "not_a_covariate"])
    def test_bad_group_col_exits_2_before_reading_data(self, capsys, tmp_path,
                                                       argv, message):
        code, out, err = run_cli(capsys, "estimate",
                                 str(tmp_path / "missing.csv"), *argv)
        assert code == 2 and out == ""
        rec = json.loads(err.splitlines()[-1])
        assert rec["error"] == "InvalidConfig" and message in rec["message"]

    def test_never_taker_group_records_are_plug_ins_on_the_group(
            self, capsys, sample_csv):
        _, _, path = sample_csv
        code, out, _ = run_cli(capsys, "estimate", path, "--folds", "2",
                               "--stratum", "nt", "--group-col", "x1")
        assert code == 0
        records = json.loads(out)
        table = sb.ObservationTable.from_csv(path)
        bundle = sb.crossfit(table, sb.LearnerSpec(folds=2, seed=0))
        support = sb.SupportBounds.from_table(table)
        cfg = sb.EstimationConfig(stratum=sb.Stratum.NT)
        values = np.unique(table.x[:, 0])
        assert len(values) >= 2 and len(records) == 1 + len(values)
        for rec, g in zip(records[1:], values):
            assert rec.pop("group") == float(g)
            rows = table.x[:, 0] == g
            want = sb.estimate_sharp(table.select(rows), bundle.select(rows),
                                     cfg, support)
            assert rec == json.loads(json.dumps(want.to_dict()))
            assert rec["diagnostics"]["plug_in"] is True
            assert rec["diagnostics"]["band"] == "none"

    def test_crossed_ends_are_reported_as_estimated_and_flagged(
            self, capsys, tmp_path):
        # sharp and trim cross on this panel-c draw; they used to print
        # lower > upper with exit 0 and no flag
        config = sb.DgpConfig(n=400, shares=sb.PANEL_SHARES["c"], base_seed=5,
                              replications=1)
        path = tmp_path / "c.csv"
        sb.dgp_sample(config, 0).to_csv(str(path))
        code, out, _ = run_cli(capsys, "estimate", str(path), "--folds", "2",
                               "--method", "sharp,trim,switch,smooth")
        assert code == 0
        records = {rec["method"]: rec for rec in json.loads(out)}
        for method, ends in {
                "sharp": (0.08584631997633506, 0.062267518708413225),
                "trim": (0.0858434211221752, 0.06215057495360624)}.items():
            rec = records[method]
            assert (rec["estimate_lower"], rec["estimate_upper"]) == ends
            assert rec["diagnostics"]["crossed"] is True
            assert rec["diagnostics"]["gap"] == ends[1] - ends[0]
            assert rec["diagnostics"]["gap"] == pytest.approx(-0.024, abs=1e-3)
        for method in ("switch", "smooth"):
            assert records[method]["diagnostics"]["crossed"] is False

    def test_group_col_past_the_last_covariate_exits_2(self, capsys,
                                                        sample_csv):
        _, table, path = sample_csv
        code, out, err = run_cli(capsys, "estimate", path, "--folds", "2",
                                 "--group-col", "x9")
        assert code == 2 and out == ""
        rec = json.loads(err.splitlines()[-1])
        assert rec["error"] == "InvalidConfig"
        assert rec["message"].endswith(f"x1..x{table.p}")

    @pytest.mark.parametrize("methods", ["bogus", "sharp,bogus"])
    def test_unknown_method_exits_2_before_reading_data(self, capsys,
                                                        tmp_path, methods):
        code, out, err = run_cli(capsys, "estimate",
                                 str(tmp_path / "missing.csv"),
                                 "--method", methods)
        assert code == 2 and out == ""
        assert json.loads(err.splitlines()[-1]) == {"error": "UnknownMethod",
                                                    "message": "bogus"}

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


    def test_zero_replications_exit_2(self, capsys, tmp_path):
        # used to write nan bias, RMSE, size and rejection rates, exit 0
        code, out, err = run_cli(capsys, "simulate", "--panel", "b", "--n",
                                 "100", "--reps", "0", "--out",
                                 str(tmp_path / "m.csv"), "--power-out",
                                 str(tmp_path / "p.csv"))
        assert code == 2 and out == ""
        assert json.loads(err.splitlines()[-1]) == {
            "error": "ValueError",
            "message": "replications must be at least 1, got 0"}
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("n", ["0", "-5", "400,0"])
    def test_bad_sample_size_exits_2_before_any_experiment(
            self, capsys, monkeypatch, tmp_path, n):
        # -5 failed in numpy ("negative dimensions are not allowed"), 0 only
        # after the oracle target was built, and 400,0 only after the whole
        # n = 400 experiment had run
        monkeypatch.setattr("strata_bounds.cli.run_experiment", _no_experiment)
        code, out, err = run_cli(capsys, "simulate", "--panel", "b",
                                 f"--n={n}", "--reps", "2", "--out",
                                 str(tmp_path / "m.csv"), "--power-out",
                                 str(tmp_path / "p.csv"))
        assert code == 2 and out == ""
        assert json.loads(err.splitlines()[-1]) == {
            "error": "ValueError",
            "message": f"n must be at least 1, got {n.split(',')[-1]}"}

    @pytest.mark.parametrize("present", [True, False],
                             ids=["present", "absent"])
    @pytest.mark.parametrize("flag", ["--out", "--power-out"])
    def test_unwritable_output_exits_2_before_any_experiment(
            self, capsys, monkeypatch, tmp_path, flag, present):
        # a missing directory used to exit 2 only after the whole Monte
        # Carlo, and a bad --power-out left a complete --out behind; the
        # other path is left as it was
        monkeypatch.setattr("strata_bounds.cli.run_experiment", _no_experiment)
        good, bad = tmp_path / "good.csv", tmp_path / "missing" / "bad.csv"
        if present:
            good.write_text("kept\n")
        out, power = (bad, good) if flag == "--out" else (good, bad)
        code, stdout, err = run_cli(capsys, "simulate", "--panel", "b", "--n",
                                    "200", "--reps", "2", "--out", str(out),
                                    "--power-out", str(power))
        assert code == 2 and stdout == ""
        rec = json.loads(err.splitlines()[-1])
        assert rec["error"] == "FileNotFoundError" and str(bad) in rec["message"]
        assert [p.name for p in tmp_path.iterdir()] == ["good.csv"] * present
        assert not present or good.read_text() == "kept\n"

    def test_one_row_replications_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--panel", "b", "--n", "1",
                               "--reps", "3", "--out", str(tmp_path / "m.csv"),
                               "--power-out", str(tmp_path / "p.csv"))
        assert code == 2
        failure = json.loads(err.splitlines()[-1])
        assert failure["error"] == "ValueError"
        assert "n = 1" in failure["message"]


@pytest.mark.parametrize("argv", [
    ("estimate", "{data}", "--method", "smooth", "--folds", "2"),
    ("bounds-curve", "--data", "{data}", "--folds", "2"),
    ("bounds-curve", "--dgp-n", "400")])
def test_infinite_h_exits_2(capsys, monkeypatch, sample_csv, argv):
    # estimate used to exit 3 (DegenerateTrimError), bounds-curve to write
    # an error row and exit 0; then estimate exited 2 only after
    # cross-fitting
    monkeypatch.setattr("strata_bounds.cli.crossfit", _no_crossfit)
    code, out, err = run_cli(capsys, *(a.format(data=sample_csv[2])
                                       for a in argv), "--h", "0.05,inf")
    assert code == 2 and out == ""
    assert json.loads(err.splitlines()[-1]) == {
        "error": "ValueError",
        "message": "h must be positive and finite, got inf"}


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

    def test_stdout_bytes_with_an_error_row_are_pinned(self, capsys):
        # the bytes written before `write_csv` existed; the smooth
        # estimator fails at h = 10, which gives an error row
        code, out, _ = run_cli(capsys, "bounds-curve", "--panel", "b",
                               "--dgp-n", "400", "--h", "0.05,10")
        assert code == 0
        assert out == (
            "h,lower,upper,ci_effect_lo,ci_effect_hi,error\n"
            "0.05,0.05605430825543107,0.31751262520145784,"
            "-0.014276683881543677,0.3847453298692458,\n"
            "10.0,,,,,DegenerateTrimError\n")

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

    @pytest.mark.parametrize("flag", [
        ("--nuisance-file", "/nonexistent.csv"), ("--nuisance-oracle",),
        ("--cells-discrete", "1"), ("--cells-bins", "4"), ("--folds", "3"),
        ("--weights-col", "weight")], ids=lambda f: f[0])
    def test_data_flag_without_data_exits_2(self, capsys, flag):
        code, out, err = run_cli(capsys, "bounds-curve", "--h", "0.05",
                                 "--dgp-n", "400", *flag)
        assert code == 2 and out == ""
        assert json.loads(err.splitlines()[-1]) == {
            "error": "InvalidConfig",
            "message": f"{flag[0]} is only used with --data"}

    @pytest.mark.parametrize("flag", [("--panel", "c"), ("--dgp-n", "99")],
                             ids=lambda f: f[0])
    def test_dgp_flag_with_data_exits_2(self, capsys, sample_csv, flag):
        _, _, path = sample_csv
        code, out, err = run_cli(capsys, "bounds-curve", "--data", path,
                                 "--h", "0.05", *flag)
        assert code == 2 and out == ""
        assert json.loads(err.splitlines()[-1]) == {
            "error": "InvalidConfig",
            "message": f"{flag[0]} is only used without --data"}

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


def _edited(edit):
    def write(table, path):
        table.to_csv(str(path))
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
    return write


def _header(old, new):
    return _edited(lambda lines: lines.__setitem__(0, lines[0].replace(old, new)))


@pytest.mark.parametrize("command", ["estimate", "bounds-curve"])
@pytest.mark.parametrize("write, code, kind", [
    (_no_control_rows, 3, "EmptyCellError"),
    (_unparsable_y, 2, "InvalidData"),
    # a blank line and a ragged row used to exit 1 with an IndexError
    (_edited(lambda lines: lines.insert(5, "")), 2, "InvalidData"),
    (_edited(lambda lines: lines.__setitem__(3, lines[3].rsplit(",", 1)[0])),
     2, "InvalidData"),
    # a header x1,x3 used to group by x3 under --group-col x2, and x1,x1
    # silently dropped a covariate
    (_header(",x2", ",x3"), 2, "InvalidData"),
    (_header(",x2", ",x1"), 2, "InvalidData"),
    (_header(",x2", ",x01"), 2, "InvalidData"),
], ids=["no_control_rows", "unparsable_y", "blank_line", "ragged_row",
        "covariate_gap", "duplicate_covariate", "leading_zero_covariate"])
def test_bad_input_same_for_both_commands(capsys, tmp_path, sample_csv,
                                          command, write, code, kind):
    config, table, _ = sample_csv
    path = tmp_path / "bad.csv"
    write(table, path)
    data = [str(path), "--method", "smooth"] if command == "estimate" \
        else ["--data", str(path)]
    got, _, err = run_cli(capsys, command, *data, "--h", "0.05", "--folds", "3")
    assert got == code
    assert json.loads(err.splitlines()[-1])["error"] == kind


@pytest.mark.parametrize("command", ["estimate", "bounds-curve"])
@pytest.mark.parametrize("value", ["0", "5", "abc"])
def test_cells_discrete_outside_the_covariates_exits_2(capsys, sample_csv,
                                                       command, value):
    # 0 used to make the last covariate discrete, 5 was an IndexError
    _, table, path = sample_csv
    data = [path, "--method", "smooth"] if command == "estimate" \
        else ["--data", path]
    code, out, err = run_cli(capsys, command, *data, "--h", "0.05",
                             "--folds", "3", "--cells-discrete", f"1,{value}")
    assert code == 2 and out == ""
    rec = json.loads(err.splitlines()[-1])
    assert rec["error"] == "InvalidConfig"
    assert rec["message"] == (f"--cells-discrete takes covariate numbers in "
                              f"1..{table.p}, got {value!r}")


@pytest.mark.parametrize("bins,argv", [
    (0, ("estimate", "{data}")),
    (-3, ("estimate", "{data}", "--cells-discrete", "1")),
    (-2, ("bounds-curve", "--data", "{data}", "--h", "0.05"))])
def test_cells_bins_below_one_exits_2_before_fitting(capsys, monkeypatch,
                                                     sample_csv, bins, argv):
    # each used to exit 0 with the records of one bin
    monkeypatch.setattr("strata_bounds.cli.crossfit", _no_crossfit)
    code, out, err = run_cli(capsys, *(a.format(data=sample_csv[2])
                                       for a in argv),
                             "--cells-bins", str(bins), "--folds", "2")
    assert code == 2 and out == ""
    assert json.loads(err.splitlines()[-1]) == {
        "error": "ValueError",
        "message": f"n_bins must be at least 1, got {bins}"}


@pytest.mark.parametrize("alpha", ["0", "1", "2", "-0.1", "nan"])
@pytest.mark.parametrize("command", ["estimate", "simulate", "bounds-curve"])
def test_alpha_outside_the_unit_interval_exits_2(capsys, monkeypatch, tmp_path,
                                                 sample_csv, command, alpha):
    # estimate and simulate used to exit 0 (null intervals, a size of 0.667);
    # bounds-curve ended in a traceback; then estimate exited 2 only after
    # cross-fitting
    monkeypatch.setattr("strata_bounds.cli.crossfit", _no_crossfit)
    argv = {"estimate": ("estimate", sample_csv[2], "--folds", "2"),
            "simulate": ("simulate", "--n", "50", "--reps", "2", "--out",
                         str(tmp_path / "m.csv"), "--power-out",
                         str(tmp_path / "p.csv")),
            "bounds-curve": ("bounds-curve", "--dgp-n", "300", "--h", "0.05")}
    code, out, err = run_cli(capsys, *argv[command], f"--alpha={alpha}")
    assert code == 2 and out == ""
    assert json.loads(err.splitlines()[-1]) == {
        "error": "ValueError",
        "message": f"alpha must be in (0, 1), got {float(alpha)}"}
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("command,cfg,message", [
    # each of the first four used to exit 0, having run the defaults
    ("estimate", {"metod": "trim"}, "config key 'metod' is not read by "
     "estimate; it reads alpha, dominance, eps_trim, folds, h, method, rho, "
     "seed, side, stratum, trim_variant"),
    ("estimate", {"cells_bins": 4}, "config key 'cells_bins' is not read by "
     "estimate"),
    ("simulate", {"n_bins": 4}, "config key 'n_bins' is not read by "
     "simulate; it reads alpha, gamma, h, n, out, panel, power_out, "
     "power_points, reps, seed, shares, threads"),
    ("estimate", {"folds": None}, "config key 'folds' takes a value, got "
     "null"),
    # these three used to exit 1 with a traceback
    ("estimate", [{"method": "trim"}], "a config file holds a JSON object, "
     "got list"),
    ("estimate", {"h": 0.05}, "config key 'h' takes a list of numbers, got "
     "0.05"),
    ("simulate", {"n": 400}, "config key 'n' takes a list of numbers, got "
     "400"),
    ("simulate", {"shares": [0.5, "0.5", 0.0]}, "config key 'shares' takes "
     "a list of numbers"),
], ids=["unknown_key", "flag_only_key", "unknown_simulate_key", "null",
        "array", "scalar_h", "scalar_n", "string_share"])
def test_config_file_errors_name_the_key(capsys, tmp_path, monkeypatch,
                                         sample_csv, command, cfg, message):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = (sample_csv[2],) if command == "estimate" else ()
    code, out, err = run_cli(capsys, command, *argv, "--config", str(path))
    assert code == 2 and out == ""
    rec = json.loads(err.splitlines()[-1])
    assert rec["error"] == "InvalidConfig"
    assert rec["message"].startswith(message)
    assert not (tmp_path / "metrics.csv").exists()


def test_one_parser_serves_every_call(capsys, tmp_path, sample_csv):
    # the parser is built once per process; each call's output equals what
    # a freshly built parser gives
    from strata_bounds.cli import build_parser
    metrics = tmp_path / "m.csv"
    calls = [("estimate", sample_csv[2], "--folds", "2"),
             ("simulate", "--n", "50", "--reps", "2", "--out", str(metrics),
              "--power-out", str(tmp_path / "p.csv")),
             ("bounds-curve", "--dgp-n", "300", "--h", "0.05"),
             ("estimate", sample_csv[2], "--folds", "3", "--method",
              "sharp,smooth", "--h", "0.05", "--side", "l", "--seed", "4")]
    parser = build_parser()
    shared = [run_cli(capsys, *argv)[:2] for argv in calls]
    shared_metrics = metrics.read_text()
    assert build_parser() is parser
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv)[:2])
    assert build_parser() is not parser
    assert [code for code, _ in shared] == [0] * 4
    assert shared == fresh
    assert metrics.read_text() == shared_metrics


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "strata_bounds.cli",
                               "--version"], capture_output=True, text=True)
        assert proc.returncode == 0

    def test_heavy_scipy_stays_unloaded(self, tmp_path):
        # the special functions, the root finder and the population targets
        # are all in-package, so neither importing the package nor running
        # a command loads any scipy module; the process pool and its
        # multiprocessing modules load only for simulate --threads > 1
        code = f"""
import sys
import strata_bounds as sb, strata_bounds.cli
HEAVY = ("scipy", "concurrent.futures.process", "multiprocessing")
def loaded():
    return [m for m in sys.modules
            if any(m == h or m.startswith(h + ".") for h in HEAVY)]
seen = [loaded()]
table = sb.dgp_sample(sb.DgpConfig(n=400, shares=(0.5, 0.0, 0.5),
                                   replications=1, base_seed=3), 0)
data = {str(tmp_path / "data.csv")!r}
table.to_csv(data)
for argv in (["estimate", data, "--folds", "2",
              "--method", "sharp,trim,switch,smooth"],
             ["simulate", "--n", "400", "--reps", "2", "--threads", "1",
              "--out", {str(tmp_path / "m.csv")!r},
              "--power-out", {str(tmp_path / "p.csv")!r}],
             ["bounds-curve", "--h", "0.05,0.01"]):
    assert strata_bounds.cli.main(argv) == 0, argv
    seen.append(loaded())
print(seen)
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[[], [], [], []]"


@st.composite
def fuzz_runs(draw):
    """A small random sample, sometimes with an external nuisance file
    whose rows are partly exactly selection-indifferent (``s0 == s1``), and
    random estimation flags."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(12, 160))
    p = draw(st.integers(1, 2))
    discrete = draw(st.booleans())
    x = rng.normal(size=(n, p))
    if discrete:
        x[:, 0] = rng.integers(0, draw(st.integers(1, 4)), n)
    d = (rng.random(n) < draw(st.floats(0.1, 0.9))).astype(int)
    s = (rng.random(n) < draw(st.floats(0.2, 1.0))).astype(int)
    y = rng.normal(size=n) + x[:, 0]
    if draw(st.booleans()):
        y = np.round(y)
    weight = rng.choice([0.0, 0.5, 1.0, 2.0], n,
                        p=draw(st.sampled_from([(0, 0, 1, 0),
                                                (0.1, 0.3, 0.4, 0.2)])))
    nuisance = None
    if draw(st.booleans()):
        indifferent = rng.random(n) < draw(st.floats(0.1, 0.9))
        s0 = rng.uniform(0.2, 0.9, n)
        nuisance = _nuisance_columns(
            rng, rng.uniform(0.2, 0.8, n), s0,
            np.where(indifferent, s0, rng.uniform(0.2, 0.9, n)))
        if draw(st.booleans()):
            # only the indifferent rows carry weight, so every row that
            # trimming keeps weighs zero
            weight = np.where(indifferent, weight, 0.0)
            weight[np.flatnonzero(indifferent)[:1]] = 1.0
    table = sb.ObservationTable(y=np.where(s == 1, y, np.nan), s=s, d=d, x=x,
                                weight=weight)
    methods = draw(st.lists(st.sampled_from(list(METHODS)), min_size=1,
                            max_size=3, unique=True))
    flags = ["--folds", str(draw(st.sampled_from([2, 3, 5]))),
             "--cells-bins", str(draw(st.integers(1, 4))),
             "--seed", str(draw(st.integers(0, 3)))]
    if discrete:
        flags += ["--cells-discrete", "1"]
    if nuisance is not None and draw(st.booleans()):
        flags += ["--nuisance-oracle"]
    stratum = draw(st.sampled_from(["at", "c", "def", "nt", "em"]))
    return table, nuisance, methods, stratum, flags


def _nuisance_columns(rng, m, s0, s1, levels=(0.1, 0.5, 0.9)):
    """External nuisance columns: the given probabilities plus per-row
    quantile and truncated-mean grids that increase in the level, the
    lower truncated mean below the quantile and the upper one above it."""
    n = len(m)
    cols = {"m": m, "s0": s0, "s1": s1}
    for arm in (0, 1):
        q = np.sort(rng.normal(size=(n, len(levels))), axis=1)
        spread = rng.uniform(0.1, 1.0, n)
        for k, u in enumerate(levels):
            cols[f"q_{arm}_u{u}"] = q[:, k]
            cols[f"b_1_{arm}_u{u}"] = q[:, k] - spread * (1.0 - u)
            cols[f"b_0_{arm}_u{u}"] = q[:, k] + spread * u
    return cols


def assert_json_error(code, err):
    assert code in (2, 3), err
    assert set(json.loads(err.splitlines()[-1])) == {"error", "message"}


@pytest.mark.filterwarnings("ignore::strata_bounds.errors.SeparationWarning")
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=fuzz_runs())
def test_fuzzed_input_gives_finite_bounds_or_a_json_error(capsys, tmp_path,
                                                          run):
    """``estimate`` and ``bounds-curve --data`` on random small samples,
    nuisance files and flags: exit 0 with finite bounds, or exit 2 or 3 with a JSON error;
    never a traceback, never a null bound."""
    table, nuisance, methods, stratum, flags = run
    path = tmp_path / "fuzz.csv"
    table.to_csv(str(path))
    if nuisance is not None:
        npath = tmp_path / "fuzz-nuisance.csv"
        with open(npath, "w") as fh:
            fh.write(",".join(nuisance) + "\n")
            for row in np.column_stack(list(nuisance.values())):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        flags = flags + ["--nuisance-file", str(npath)]
    code, out, err = run_cli(capsys, "estimate", str(path), "--method",
                             ",".join(methods), "--stratum", stratum, *flags)
    if code == 0:
        for rec in json.loads(out):
            bounds = [rec["estimate_lower"], rec["estimate_upper"]]
            assert None not in bounds and np.isfinite(bounds).all(), rec
    else:
        assert_json_error(code, err)
    code, out, err = run_cli(capsys, "bounds-curve", "--data", str(path),
                             "--h", "0.05,0.2", *flags)
    if code == 0:
        for line in out.strip().splitlines()[1:]:
            h, lower, upper, _, _, error = line.split(",")
            if error:
                assert lower == upper == ""
            else:
                assert np.isfinite([float(lower), float(upper)]).all()
    else:
        assert_json_error(code, err)


class TestGoldenOutput:
    """``estimate`` with the benchmark's cross-fitting flags reproduces,
    byte for byte, the stdout recorded for two fixed panel-b draws (draw
    124 has a held-out cell that no training fold saw). The digests were
    recorded with numpy 2.4 on x86-64. A second digest per draw covers the
    records without their ``diagnostics``, so a change to the diagnostics
    cannot hide a change to the numbers. A change to either needs a line in
    ``CHANGES.md`` that says why the outputs changed."""

    FLAGS = ("--method", "sharp,trim,switch,smooth", "--h", "0.05,0.01",
             "--cells-discrete", "1", "--cells-bins", "3", "--folds", "5",
             "--seed", "1")
    DIGESTS = {
        0: "128c18c462d1390f96576f130979395fb17d108d6685db844ad5bd7070613087",
        124: "c053c61396a19a8a7a4e1441e6a0a1dfa3ebcfd72a89f08cfd45431cd0b8aa5d",
    }
    NUMBERS = {
        0: "073628a9bdda1a52cbcc7d98d22dc06f75f34f5d29e2b55b0bdd5b5675627a9f",
        124: "1eca54f0583b2bf64528ef39f88f05123531b4f422083719463734b0b59a6e10",
    }

    @pytest.mark.parametrize("rep", sorted(DIGESTS))
    def test_stdout_digest(self, capsys, tmp_path, rep):
        config = sb.DgpConfig(n=2000, shares=sb.PANEL_SHARES["b"],
                              base_seed=5, replications=1)
        path = tmp_path / "draw.csv"
        sb.dgp_sample(config, rep).to_csv(str(path))
        code, out, _ = run_cli(capsys, "estimate", str(path), *self.FLAGS)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[rep]
        records = json.loads(out)
        for rec in records:
            del rec["diagnostics"]
        numbers = json.dumps(records, indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(numbers.encode()).hexdigest() == self.NUMBERS[rep]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_overflowing_standard_errors_exit_3(capsys, tmp_path):
    # at y x 1e307 the cells' weighted outcome sums overflow, and the moment
    # rows built on them are not finite (numpy warns on the way); from
    # y x 1e160 on, the squared residuals of the unscaled standard errors
    # overflowed: estimate used to exit 0 with null standard errors and
    # interval ends, bounds-curve with infinite effect-interval ends
    config = sb.DgpConfig(n=2000, shares=sb.PANEL_SHARES["b"], base_seed=5,
                          replications=1)
    table = sb.dgp_sample(config, 0)
    path = str(tmp_path / "scaled.csv")
    sb.ObservationTable(table.y * 1e307, table.s, table.d, table.x,
                        table.weight).to_csv(path)
    code, out, err = run_cli(capsys, "estimate", path, *TestGoldenOutput.FLAGS)
    assert code == 3 and out == ""
    assert json.loads(err.splitlines()[-1])["error"] == "InfiniteMomentError"
    code, out, _ = run_cli(capsys, "bounds-curve", "--data", path, "--h",
                           "0.05", *TestGoldenOutput.FLAGS[4:])
    assert code == 0
    assert out.splitlines()[1:] == ["0.05,,,,,InfiniteMomentError"]


@pytest.mark.parametrize("case", ["grid-less nuisance file", "empty draw",
                                  "unwritable output"])
def test_input_and_file_errors_exit_2(capsys, tmp_path, sample_csv, case):
    # each ended in a traceback with exit 1: bounds-curve's per-h loop
    # caught only package errors, and neither its design draw nor
    # simulate's writers were covered by an error handler
    config, table, path = sample_csv
    npath = str(tmp_path / "nuis.csv")
    write_nuisance_csv(npath, table, sb.oracle_nuisances(config)(table),
                       u_grid=())
    argv, kind, message = {
        "grid-less nuisance file": (
            ("bounds-curve", "--data", path, "--nuisance-file", npath, "--h",
             "0.05"), "ValueError", "no quantile grid supplied for arm 1"),
        "empty draw": (("bounds-curve", "--dgp-n", "0", "--h", "0.05"),
                       "ValueError", "n must be at least 1, got 0"),
        "unwritable output": (
            ("simulate", "--panel", "b", "--n", "200", "--reps", "2", "--out",
             str(tmp_path / "missing" / "m.csv"), "--power-out",
             str(tmp_path / "p.csv")),
            "FileNotFoundError", "No such file or directory"),
    }[case]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    rec = json.loads(err.splitlines()[-1])
    assert rec["error"] == kind and message in rec["message"]
