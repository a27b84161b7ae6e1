"""Span tracing of semireg's public functions from outside the program.

``Tracer.install`` replaces each traced function or method with a
wrapper under every name that binds it in a ``semireg`` module (a
function imported into four modules is wrapped four times over the same
span name), so calls between layers are seen.  Spans live in flat
arrays -- name, start, end, parent span, experiment id, flag -- and are
written out when the run ends.  A span's self time is its duration minus
the durations of its direct children; the program is single-threaded,
so children never overlap.

The wrappers' own cost lands in the self time of the caller's span.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
from array import array
from time import perf_counter

import numpy as np

# Traced names, module first; each is also the span name and metric prefix.
TARGETS = (
    "zoo.build",
    "cli.main",
    "linalg.mat_exp",
    "linalg.op_norm",
    "linalg.resolvent",
    "linalg.quad_strong_integral",
    "discpoly.eval_matrix",
    "discpoly.disc_norm",
    "spaces.GridSpace.norm_rows",
    "semigroup.GeneratorSpec.semigroup",
    "semigroup.beurling_profile",
    "semigroup.converse_profile",
    "semigroup.sector_report",
    "rbound.rbound_estimate",
    "rbound.rademacher_norm",
    "rbound.r_beurling_profile",
    "cosine.CosineFamily.sample",
    "cosine.fattorini_series",
    "cosine.zero_two_profile",
    "cosine.laplace_transform_check",
    "cosine.dalembert_residual",
    "interp.riesz_thorin_check",
    "interp.extrapolation_bench",
)


def _dense(A) -> bool:
    A = np.asarray(A)
    return bool(np.any(A - np.diag(np.diagonal(A))))


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name_id: array = array("H")
        self.parent: array = array("l")
        self.exp: array = array("l")
        self.start: array = array("d")
        self.end: array = array("d")
        self.flag: array = array("b")
        self.stack: list = []
        self.exp_id = -1                 # -1: set-up, 0: warm-up, 1..: timed
        self.totals: dict = {}           # summed result fields, by metric name
        self._seen: dict = {}            # distinct keys of the current experiment
        self._installed: list = []

    # ------------------------------------------------------------ spans

    def begin_experiment(self, exp_id: int) -> None:
        self._flush_distinct()
        self.exp_id = exp_id

    def _flush_distinct(self) -> None:
        for name, keys in self._seen.items():
            self.add(name, len(keys))
        self._seen = {}

    def add(self, metric: str, amount: float) -> None:
        self.totals[metric] = self.totals.get(metric, 0.0) + amount

    def see(self, metric: str, key) -> None:
        self._seen.setdefault(metric, set()).add(key)

    def wrap(self, span: str, fn, after=None):
        nid = len(self.names)
        self.names.append(span)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tr.start)
            tr.name_id.append(nid)
            tr.parent.append(tr.stack[-1] if tr.stack else -1)
            tr.exp.append(tr.exp_id)
            tr.flag.append(0)
            tr.end.append(0.0)
            tr.stack.append(idx)
            tr.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.end[idx] = perf_counter()
                tr.stack.pop()
            if after is not None:
                after(tr, idx, args + tuple(kwargs.values()), out)
            return out

        return traced

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap every target under every semireg name that binds it."""
        import semireg
        modules = [semireg] + [importlib.import_module(f"semireg.{m.name}")
                               for m in pkgutil.iter_modules(semireg.__path__)]
        for span in TARGETS:
            mod_name, path = span.split(".", 1)
            owner = importlib.import_module(f"semireg.{mod_name}")
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(span, original, AFTER.get(span)))
                self._installed.append((cls, meth, original))
                continue
            original = getattr(owner, path)
            wrapper = self.wrap(span, original, AFTER.get(span))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    # ------------------------------------------------------------ results

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name_id, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "exp": np.frombuffer(self.exp, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "flag": np.frombuffer(self.flag, dtype=np.int8).copy(),
        }

    def metrics(self) -> dict:
        """Per-layer metrics: calls, self time and the summed result fields."""
        self._flush_distinct()
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        self_by = np.bincount(a["name"], weights=self_s, minlength=k)
        flagged = a["flag"] > 0
        flag_calls = np.bincount(a["name"][flagged], minlength=k)
        flag_self = np.bincount(a["name"][flagged], weights=self_s[flagged], minlength=k)
        out = {}
        for i, span in enumerate(self.names):
            out[f"{span}.calls"] = int(calls[i])
            out[f"{span}.self_s"] = float(self_by[i])
            if span == "linalg.mat_exp":
                out["linalg.mat_exp.dense_calls"] = int(flag_calls[i])
            if span == "linalg.op_norm":
                out["linalg.op_norm.iterative_calls"] = int(flag_calls[i])
                out["linalg.op_norm.iterative_self_s"] = float(flag_self[i])
        for metric, value in self.totals.items():
            out[metric] = value
        return out

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# Recorders run after a call returns; they set the span flag or add to the
# summed result fields.

def _mat_exp(tr, idx, args, out):
    if _dense(args[0]):
        tr.flag[idx] = 1


def _op_norm(tr, idx, args, out):
    p = args[1].p
    if p not in (1.0, 2.0) and p != float("inf") and _dense(args[0]):
        tr.flag[idx] = 1


def _semigroup(tr, idx, args, out):
    tr.see("semigroup.GeneratorSpec.semigroup.distinct", (id(args[0].matrix), float(args[1])))


def _sample(tr, idx, args, out):
    tr.see("cosine.CosineFamily.sample.distinct", (id(args[0]), float(args[1])))


def _norm_rows(tr, idx, args, out):
    tr.add("spaces.GridSpace.norm_rows.rows", int(np.prod(np.shape(args[1])[:-1])))


AFTER = {
    "linalg.mat_exp": _mat_exp,
    "linalg.op_norm": _op_norm,
    "linalg.quad_strong_integral":
        lambda tr, idx, args, out: tr.add("linalg.quad_strong_integral.nodes", out.nodes),
    "spaces.GridSpace.norm_rows": _norm_rows,
    "semigroup.GeneratorSpec.semigroup": _semigroup,
    "rbound.rbound_estimate":
        lambda tr, idx, args, out: tr.add("rbound.rbound_estimate.trials", out.trials),
    "cosine.CosineFamily.sample": _sample,
    "cosine.fattorini_series":
        lambda tr, idx, args, out: (tr.add("cosine.fattorini_series.nodes", out.nodes),
                                    tr.add("cosine.fattorini_series.refinements",
                                           out.refinements)),
}
