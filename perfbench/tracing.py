"""Spans around the calls into each strata_bounds layer.

The tracer replaces public entry points at the place where the caller
looks them up (a module global or a class attribute), so nothing under
``src/`` changes. Spans carry name, start, end, parent span and op id,
stay in memory, and are written out once at the end of a run. A layer's
self time is its span duration minus the time its direct children cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# Layer names in report order; each layer reports ``<name>.s`` (self time).
LAYERS = (
    "cli.self",
    "data_model.from_csv",
    "data_model.validate",
    "nuisance.crossfit",
    "nuisance.load_external",
    "nuisance.eval",
    "identification.support",
    "influence.moments",
    "smoothing.g",
    "estimation.estimators",
    "estimation.ratio_se",
    "estimation.critical_value",
    "simulation.engine",
    "simulation.sample",
    "simulation.oracle_bundle",
    "simulation.quadrature",
)
# Layers that also report ``<name>.calls``; ``nuisance.eval`` adds ``.rows``.
COUNTED = ("nuisance.eval", "influence.moments", "smoothing.g",
           "estimation.critical_value")
# Sums that every workload exercises: reading or sampling the input, and
# building the nuisance bundle (fitting, ingesting or the closed-form oracle).
SUMMED = {
    "input.s": ("data_model.from_csv.s", "data_model.validate.s",
                "simulation.sample.s"),
    "nuisance.build.s": ("nuisance.crossfit.s", "nuisance.load_external.s",
                         "simulation.oracle_bundle.s"),
}

_ESTIMATORS = ("estimate_sharp", "estimate_trim", "estimate_switch",
               "estimate_smooth", "estimate_inefficient")


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, op id, rows]
        self._stack = []
        self._saved = []
        self.op = None

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args, kwargs, rows=0):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
               self.op, rows]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, post=None):
        def traced(*args, **kwargs):
            out = self.call(name, fn, args, kwargs)
            return post(out) if post is not None else out
        return traced

    def wrap_bundle(self, bundle):
        """Trace evaluations on the root bundle. Derived bundles (negated,
        swapped, row subsets) evaluate through the parent's methods, so each
        evaluation is counted once."""
        quantile, trunc_mean = bundle.quantile, bundle.trunc_mean

        def traced_quantile(rows, d, u):
            return self.call("nuisance.eval", quantile, (rows, d, u), {},
                             rows=len(rows))

        def traced_trunc_mean(rows, j, d, u):
            return self.call("nuisance.eval", trunc_mean, (rows, j, d, u), {},
                             rows=len(rows))

        bundle.quantile = traced_quantile
        bundle.trunc_mean = traced_trunc_mean
        return bundle

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, name, post=None):
        orig = owner.__dict__[attr]
        if isinstance(orig, classmethod):
            wrapped = classmethod(self.wrap(name, orig.__func__, post))
        else:
            wrapped = self.wrap(name, orig, post)
        setattr(owner, attr, wrapped)
        self._saved.append((owner, attr, orig))

    def install(self, pkg):
        """Patch the entry points of the imported ``strata_bounds`` package
        ``pkg``; ``uninstall`` restores them."""
        cli, est, sim = pkg.cli, pkg.estimation, pkg.simulation
        bundle = self.wrap_bundle
        self._patch(cli, "crossfit", "nuisance.crossfit", post=bundle)
        self._patch(cli, "load_external_nuisances", "nuisance.load_external",
                    post=bundle)
        self._patch(cli, "validate", "data_model.validate")
        self._patch(cli, "run_experiment", "simulation.engine")
        self._patch(pkg.data_model.ObservationTable, "from_csv",
                    "data_model.from_csv")
        self._patch(pkg.identification.SupportBounds, "from_table",
                    "identification.support")
        for module in (cli, sim):
            for attr in _ESTIMATORS:
                if attr in module.__dict__:
                    self._patch(module, attr, "estimation.estimators")
        for attr in ("eif_regular", "eif_smooth", "degenerate_at_moments"):
            self._patch(est, attr, "influence.moments")
        for attr in ("ratio_estimate", "smooth_ratio_estimate"):
            self._patch(est, attr, "estimation.ratio_se")
        self._patch(est, "im_critical_value", "estimation.critical_value")
        for attr in ("g", "g_prime"):
            self._patch(pkg.smoothing.GFamily, attr, "smoothing.g")
        self._patch(sim, "dgp_sample", "simulation.sample")
        self._patch(sim, "oracle_support", "identification.support")
        self._patch(sim, "oracle_target", "simulation.quadrature")

        def traced_factory(factory):
            return self.wrap("simulation.oracle_bundle", factory, post=bundle)
        self._patch(sim, "oracle_nuisances", "simulation.oracle_bundle",
                    post=traced_factory)

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- reduction ---------------------------------------------------------

    def per_op_table(self, n_ops: int) -> dict:
        """Self time per layer and exact counts, each divided by ``n_ops``."""
        child = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        rows = defaultdict(int)
        for i, (name, start, end, _, _, nrows) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
            rows[name] += nrows
        table = {f"{layer}.s": self_s[layer] / n_ops for layer in LAYERS}
        for layer in COUNTED:
            table[f"{layer}.calls"] = calls[layer] / n_ops
        table["nuisance.eval.rows"] = rows["nuisance.eval"] / n_ops
        for name, parts in SUMMED.items():
            table[name] = sum(table[part] for part in parts)
        return table

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, nrows in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "rows": nrows}) + "\n")
