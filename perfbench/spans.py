"""Spans around every public function of each ``kappainf`` layer.

The tracer wraps, from outside the program, each function a layer module
lists in ``__all__`` and rebinds the wrapper at every module attribute that
held the original.  That covers calls through the module (``curves.f``),
names imported into another module (``cli.reduced_prob``,
``verification.grid_min``, ``oracles.pdf``) and calls inside the defining
module.  The benchmark adds one ``cli`` span around each CLI invocation.

Spans (name, start, end, parent, element count, success) stay in flat
arrays in memory and are written out once, at the end.  Self time is a
span's duration minus that of its direct children.  Counters come from the
call arguments: the size of the first ndarray argument, or the draw count
for ``sample`` / ``mc_prob``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("special", "distributions", "curves", "solver", "oracles", "verification", "cli")
COUNT_ARG = {"distributions.sample": 1, "oracles.mc_prob": 2}
QUADRATURE = ("oracles.adaptive_gauss_kronrod", "oracles.quadrature_prob",
              "oracles.total_density_mass")

# Per-layer metrics: name -> unit.  "/inv" means per traced CLI invocation.
UNITS = {
    "special.calls": "count/inv",
    "special.elems_per_call": "count",
    "special.self_ms": "ms/inv",
    "curves.calls": "count/inv",
    "curves.elems_per_call": "count",
    "curves.self_ms": "ms/inv",
    "solver.roots": "count/inv",
    "solver.evals_per_root": "count",
    "solver.self_ms": "ms/inv",
    "solver.infimum_p50_us": "us",
    "distributions.pdf_points": "count/inv",
    "distributions.sample_draws": "count/inv",
    "distributions.self_ms": "ms/inv",
    "oracles.quad_points_per_case": "count",
    "oracles.quadrature_self_ms": "ms/inv",
    "oracles.mc_self_ms": "ms/inv",
    "oracles.grid_self_ms": "ms/inv",
    "verification.self_ms": "ms/inv",
    "cli.self_ms": "ms/inv",
    "cli.bytes_out": "B/inv",
    "trace.overhead_ratio": "1",
}


def _elements(args) -> int:
    for arg in args:
        if isinstance(arg, np.ndarray):
            return arg.size
    return 1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.size = array("q")
        self.ok = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def call(self, fid: int, size: int, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside one span."""
        idx = len(self.fid)
        self.fid.append(fid)
        self.parent.append(self._stack[-1])
        self.size.append(size)
        self.ok.append(0)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
            self.ok[idx] = 1
            return result
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def _wrap(self, name: str, fn):
        fid = self.name_id(name)
        count_arg = COUNT_ARG.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_arg is None:
                size = _elements(args)
            else:
                size = int(args[count_arg]) if len(args) > count_arg else 1
            return self.call(fid, size, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Rebind every public layer function, wherever a module holds it."""
        wrappers = {}
        for layer in LAYERS[:-1]:
            module = importlib.import_module(f"kappainf.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "kappainf" and not modname.startswith("kappainf."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._undo.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def arrays(self) -> dict:
        return {
            "fid": np.frombuffer(self.fid, dtype=np.intc).astype(np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.intc).astype(np.int64),
            "size": np.frombuffer(self.size, dtype=np.int64),
            "ok": np.frombuffer(self.ok, dtype=np.int8).astype(bool),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path: str) -> None:
        np.savez(path, names=np.array(json.dumps(self.names)), **self.arrays())

    def metrics(self, invocations: int, bytes_out: float, overhead_ratio: float):
        """(per-layer metrics, share of traced self time per layer)."""
        a = self.arrays()
        fid, parent, size, ok = a["fid"], a["parent"], a["size"], a["ok"]
        dur = a["end"] - a["start"]
        nested = parent >= 0
        self_t = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        layer = np.array([n.partition(".")[0] for n in self.names])[fid]

        def named(*wanted):
            return np.isin(fid, [i for i, n in enumerate(self.names) if n in wanted])

        def parent_is(child_mask, parent_mask):
            out = np.zeros_like(child_mask)
            out[child_mask & nested] = parent_mask[parent[child_mask & nested]]
            return out

        def per_inv_ms(mask):
            return float(self_t[mask].sum()) * 1e3 / invocations

        def ratio(num, den):
            return float(num) / den if den else 0.0

        out = {}
        for name in ("special", "curves"):
            mask = layer == name
            out[f"{name}.calls"] = mask.sum() / invocations
            out[f"{name}.elems_per_call"] = ratio(size[mask].sum(), mask.sum())
            out[f"{name}.self_ms"] = per_inv_ms(mask)

        roots = named("solver.ig_critical_point") & ok
        evals = parent_is(named("curves.ig_stationarity_scaled"), roots)
        out["solver.roots"] = roots.sum() / invocations
        out["solver.evals_per_root"] = ratio(evals.sum(), roots.sum())
        out["solver.self_ms"] = per_inv_ms(layer == "solver")
        root_parents = np.zeros_like(roots)
        root_parents[parent[roots & nested]] = True
        solving = named("solver.infimum") & root_parents & ok
        out["solver.infimum_p50_us"] = float(np.median(dur[solving])) * 1e6 if solving.any() else 0.0

        pdf = named("distributions.pdf")
        out["distributions.pdf_points"] = size[pdf].sum() / invocations
        out["distributions.sample_draws"] = size[named("distributions.sample")].sum() / invocations
        out["distributions.self_ms"] = per_inv_ms(layer == "distributions")

        gk = named("oracles.adaptive_gauss_kronrod")
        out["oracles.quad_points_per_case"] = ratio(size[parent_is(pdf, gk)].sum(), gk.sum())
        out["oracles.quadrature_self_ms"] = per_inv_ms(named(*QUADRATURE))
        out["oracles.mc_self_ms"] = per_inv_ms(named("oracles.mc_prob"))
        out["oracles.grid_self_ms"] = per_inv_ms(named("oracles.grid_min"))
        out["verification.self_ms"] = per_inv_ms(layer == "verification")
        out["cli.self_ms"] = per_inv_ms(layer == "cli")
        out["cli.bytes_out"] = bytes_out
        out["trace.overhead_ratio"] = overhead_ratio

        total = float(self_t.sum()) or 1.0
        shares = {name: float(self_t[layer == name].sum()) / total for name in LAYERS}
        return {k: float(v) for k, v in out.items()}, shares
