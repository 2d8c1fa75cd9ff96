"""Spans around the calls into each consonance module, recorded from outside.

Installing the tracer replaces every public function of the package
modules, wherever a module holds it as an attribute, with a wrapper that
records a span: name, start, end, parent span and operation id.  Spans
stay in flat arrays in memory and are written out once, when the run ends.
``optimizer.minimize`` (scipy's, imported by name) is wrapped as well, and
the objective it receives is wrapped as ``optimizer.eval``; the Nelder-Mead
exit status is counted at that boundary.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("qstate", "coherence", "unitary", "optimizer", "measures", "states", "cli")
MAXFEV_STATUS = 1      # scipy Nelder-Mead: stopped on maxfev


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self._stack = [-1]
        self.minimize_calls = 0
        self.minimize_maxfev = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.op.append(self.op_id)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf()
                self._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _wrap_minimize(self, minimize):
        inner = self.wrap("optimizer.minimize", minimize)

        def traced_minimize(fun, x0, *args, **kwargs):
            res = inner(self.wrap("optimizer.eval", fun), x0, *args, **kwargs)
            self.minimize_calls += 1
            self.minimize_maxfev += int(getattr(res, "status", 0) == MAXFEV_STATUS)
            return res

        return traced_minimize

    @contextlib.contextmanager
    def installed(self):
        """Wrap the package's public functions; restore them on exit."""
        modules = [importlib.import_module(f"consonance.{m}") for m in LAYERS]
        modules.append(importlib.import_module("consonance"))
        wrappers = {}
        for mod in modules[:-1]:
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(f"{mod.__name__.split('.')[-1]}.{attr}", obj)
        saved = []
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        opt = modules[LAYERS.index("optimizer")]
        if hasattr(opt, "minimize"):
            saved.append((opt, "minimize", opt.minimize))
            opt.minimize = self._wrap_minimize(opt.minimize)
        try:
            yield self
        finally:
            for mod, attr, obj in reversed(saved):
                setattr(mod, attr, obj)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"names": np.array(self.names, dtype=str),
                "name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op, dtype=np.int32)}

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


# metric stem -> span names it aggregates
GROUPS = {
    "unitary.chart": ("unitary.hermitian_from_theta",),
    "unitary.exp": ("unitary.expi_hermitian",),
    "unitary.embed": ("unitary.embed_matrix",),
    "unitary.apply": ("unitary.apply",),
    "optimizer.eval": ("optimizer.eval",),
    "optimizer.minimize": ("optimizer.minimize",),
    "optimizer.op": ("optimizer.consonance", "optimizer.oracle_consonance"),
    "coherence.sum": ("coherence.nonlocal_sum", "coherence.local_coherence",
                      "coherence.profile"),
    "qstate.assert_valid": ("qstate.assert_valid",),
    "states.make_family": ("states.make_family",),
    "measures.concurrence": ("measures.concurrence_2x2", "measures.concurrence_werner"),
    "measures.negativity": ("measures.negativity",),
    "measures.discord": ("measures.discord_werner", "measures.discord_bell_like",
                         "measures.discord_2x3"),
    "measures.closed_form": ("measures.consonance_closed_form",),
    "cli.evaluate_measure": ("cli.evaluate_measure",),
}


def layer_metrics(tracer: Tracer, n_ops: int, n_evals: int) -> dict:
    """Per-layer figures from the spans of ``n_ops`` ops that ran ``n_evals``
    frame evaluations.

    A span's self time is its duration minus the durations of its children.
    Op time is the summed duration of the outermost spans inside ops, on
    the spans' own clock.
    """
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    child = np.zeros(dur.size)
    has_parent = a["parent"] >= 0
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    self_t = dur - child
    in_op = a["op"] >= 0
    ids = {n: k for k, n in enumerate(a["names"])}

    def sel(stem):
        wanted = [ids[n] for n in GROUPS[stem] if n in ids]
        return np.isin(a["name_id"], wanted)

    def calls_per_op(stem):
        return float(np.count_nonzero(sel(stem) & in_op)) / max(n_ops, 1)

    def mean_us(stem, times=dur):
        m = sel(stem)
        return float(times[m].mean() * 1e6) if m.any() else 0.0

    op_seconds = dur[in_op & ~has_parent].sum()
    eval_self = self_t[sel("optimizer.eval")].sum() + self_t[sel("optimizer.op")].sum()
    nm_self = self_t[sel("optimizer.minimize")].sum()
    out = {
        "unitary.chart.calls": (calls_per_op("unitary.chart"), "calls/op"),
        "unitary.chart.us": (mean_us("unitary.chart"), "us"),
        "unitary.exp.calls": (calls_per_op("unitary.exp"), "calls/op"),
        "unitary.exp.us": (mean_us("unitary.exp"), "us"),
        "unitary.embed.calls": (calls_per_op("unitary.embed"), "calls/op"),
        "unitary.embed.us": (mean_us("unitary.embed"), "us"),
        "unitary.apply.us": (mean_us("unitary.apply"), "us"),
        "optimizer.evals_per_op": (n_evals / max(n_ops, 1), "evals/op"),
        "optimizer.eval.us": (mean_us("optimizer.eval"), "us"),
        "optimizer.frame_rest.us": (eval_self * 1e6 / n_evals if n_evals else 0.0, "us"),
        "optimizer.nm_self.share": (nm_self / op_seconds if op_seconds else 0.0, "share"),
        "optimizer.minimize.calls": (calls_per_op("optimizer.minimize"), "calls/op"),
        "optimizer.maxfev_frac": (tracer.minimize_maxfev / tracer.minimize_calls
                                  if tracer.minimize_calls else 0.0, "share"),
        "coherence.sum.calls": (calls_per_op("coherence.sum"), "calls/op"),
        "coherence.sum.us": (mean_us("coherence.sum"), "us"),
        "qstate.assert_valid.us": (mean_us("qstate.assert_valid"), "us"),
        "states.make_family.us": (mean_us("states.make_family"), "us"),
        "measures.concurrence.us": (mean_us("measures.concurrence"), "us"),
        "measures.negativity.us": (mean_us("measures.negativity"), "us"),
        "measures.discord.us": (mean_us("measures.discord"), "us"),
        "measures.closed_form.us": (mean_us("measures.closed_form"), "us"),
        "cli.evaluate_measure.self_us": (mean_us("cli.evaluate_measure", self_t), "us"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}
