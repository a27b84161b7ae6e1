"""Experiments repeat for a seed and differ between seeds; the tracer sees
calls between layers and restores the program when removed.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import numpy as np
import pytest

import tracing
import workloads
from semireg import linalg, semigroup, zoo
from semireg.discpoly import Polynomial
from semireg.spaces import GridSpace


def _params(cls, seed, tmp_path):
    wl = cls(seed, str(tmp_path))
    exps = [wl.warmup()] + wl.round(0) + wl.round(1)
    return [(e.kind, e.params) for e in exps]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_experiments_other_seed_other(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    first = _params(cls, 7, tmp_path)
    assert first == _params(cls, 7, tmp_path)
    other = _params(cls, 8, tmp_path)
    assert first != other
    # Rounds keep their composition: only parameters and order change.
    kinds = sorted(k for k, _ in first[1:1 + len(cls(7, str(tmp_path)).slots())])
    assert kinds == sorted(k for k, _ in other[1:1 + len(kinds)])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_rounds_differ_within_a_run(name, tmp_path):
    wl = workloads.WORKLOADS[name](7, str(tmp_path))
    assert [e.params for e in wl.round(0)] != [e.params for e in wl.round(1)]


def test_tracer_sees_calls_under_every_binding_and_uninstalls():
    original = linalg.mat_exp
    tr = tracing.Tracer()
    tr.install()
    try:
        assert semigroup.mat_exp is not original
        gen = zoo.build("heat_conv", 8)
        tr.begin_experiment(1)
        semigroup.beurling_profile(gen, Polynomial([-1.0, 1.0]),
                                   np.array([1.0, 0.1, 0.01]), GridSpace.unit(8))
        m = tr.metrics()
    finally:
        tr.uninstall()
    assert linalg.mat_exp is original and semigroup.mat_exp is original
    assert m["zoo.build.calls"] == 1
    assert m["semigroup.beurling_profile.calls"] == 1
    assert m["semigroup.GeneratorSpec.semigroup.calls"] == 3
    assert m["semigroup.GeneratorSpec.semigroup.distinct"] == 3
    assert m["linalg.mat_exp.calls"] == m["linalg.mat_exp.dense_calls"] == 3
    assert m["linalg.op_norm.calls"] == 3
    # Self times partition the outermost span.
    total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    a = tr.arrays()
    outer = a["parent"] < 0
    assert total == pytest.approx(float(np.sum((a["end"] - a["start"])[outer])), rel=1e-9)
