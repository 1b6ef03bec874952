"""The benchmark tracer sees every estimator call.

``perfbench/tracing.py`` patches the ``estimate_*`` names in ``simulation``,
where ``run_method`` looks them up for every command and the replication
worker. An estimator call dispatched from anywhere else would leave the
``estimation.estimators`` layer silently empty, so this test installs the
tracer (loaded from its file, unchanged) and counts one span per estimator
call: on ``estimate`` with every method and ``--group-col``, on
``bounds-curve``, and on one Monte Carlo replication. A successful estimator
call packages exactly one record through ``estimation._estimate``, which
gives the count to compare with.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import strata_bounds as sb
import strata_bounds.cli
from strata_bounds import estimation
from strata_bounds.simulation import _replication_worker
from test_cli import run_cli, write_nuisance_csv

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture()
def traced(monkeypatch):
    """``(tracer, packaged)``: the installed tracer and a list that grows
    by one entry per record that ``_estimate`` packages."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    packaged = []
    package = estimation._estimate

    def counting(*args, **kwargs):
        est = package(*args, **kwargs)
        packaged.append(est.method)
        return est

    monkeypatch.setattr(estimation, "_estimate", counting)
    tracer = module.Tracer()
    tracer.install(sb)
    try:
        yield tracer, packaged
    finally:
        tracer.uninstall()


def _estimator_spans(tracer):
    return sum(span[0] == "estimation.estimators" for span in tracer.spans)


def test_estimate_with_groups_traces_every_estimator(traced, capsys,
                                                      tmp_path):
    tracer, packaged = traced
    config = sb.DgpConfig(n=600, shares=sb.PANEL_SHARES["a"], base_seed=2,
                          replications=1)
    table = sb.dgp_sample(config, 0)
    dpath, npath = tmp_path / "d.csv", tmp_path / "n.csv"
    table.to_csv(str(dpath))
    write_nuisance_csv(str(npath), table, sb.oracle_nuisances(config)(table),
                       u_grid=np.linspace(0.05, 0.95, 19))
    code, out, _ = run_cli(capsys, "estimate", str(dpath), "--method",
                           "sharp,trim,switch,smooth,inefficient",
                           "--h", "0.05,0.01", "--nuisance-file", str(npath),
                           "--nuisance-oracle", "--group-col", "x1")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 6 * (1 + len(np.unique(table.x[:, 0])))
    assert len(packaged) == len(records)
    assert _estimator_spans(tracer) == len(records)


def test_bounds_curve_traces_one_estimator_per_h(traced, capsys):
    tracer, packaged = traced
    code, out, _ = run_cli(capsys, "bounds-curve", "--dgp-n", "400",
                           "--h", "0.2,0.05,0.01")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 3
    assert packaged == ["smooth"] * 3
    assert _estimator_spans(tracer) == 3


def test_replication_traces_every_estimator(traced):
    tracer, packaged = traced
    config = sb.DgpConfig(n=400, shares=sb.PANEL_SHARES["b"], base_seed=3,
                          replications=1)
    out = _replication_worker(config, 0)
    assert not [name for name, rec in out.items() if rec[0] == "fail"]
    assert len(packaged) == len(out) == len(config.estimators)
    assert _estimator_spans(tracer) == len(out)
