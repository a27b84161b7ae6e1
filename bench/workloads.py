"""The benchmark's workloads: experiments made from a seed.

A workload is built once per process -- generators, operator families
and weights come from the seed -- and then hands out rounds.  Every
round has the same composition: the same experiment kinds, generators,
dimensions and exponents in the same numbers.  The seed draws only the
continuous parameters (polynomial roots, time-grid tops, zeta, omega,
vectors) and the order inside the round.  The median and the 90th
percentile of a run therefore fall inside one experiment kind whatever
the seed; the slot tables below say which.

Program functions are looked up through their modules at call time, so
that the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from semireg import cli, cosine, rbound, semigroup, zoo
from semireg.discpoly import Polynomial
from semireg.spaces import GridSpace

import checks

INF = math.inf


@dataclass
class Experiment:
    kind: str
    params: dict                    # what the seed decided, for equality tests
    run: Callable[[], object]       # one call into the program, timed
    check: Callable[[object], None]  # raises checks.CheckFailure, untimed


def _rng(tag: int, seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([tag, seed, *stream])


def _root_poly(rng: np.random.Generator, degree: int) -> list:
    """c (z - 1) prod (z - r_j): f(1) = 0 < ||f||_D, roots inside the disc."""
    roots = [1.0 + 0j] + [complex(0.8 * math.sqrt(rng.uniform()) *
                                  np.exp(2j * math.pi * rng.uniform()))
                          for _ in range(degree - 1)]
    coeffs = np.array([1.0 + 0j])
    for r in roots:
        coeffs = np.convolve(coeffs, [-r, 1.0])
    return (coeffs * np.exp(2j * math.pi * rng.uniform())).tolist()


def _poly_arg(coeffs) -> str:
    """A coefficient list as the CLI's --poly JSON of [re, im] pairs."""
    return "[" + ",".join(f"[{c.real!r},{c.imag!r}]" for c in coeffs) + "]"


def _pick(rng: np.random.Generator, n: int, k: int) -> list:
    return sorted(int(i) for i in rng.choice(n, size=k, replace=False))


class Workload:
    """Set-up in ``__init__``; ``warmup`` and ``round`` make experiments."""

    tag = 0
    nominal_round_s = 1.0   # untraced round time; sets a traced run's length

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch

    def slots(self) -> list:
        raise NotImplementedError

    def make(self, slot: tuple, rng: np.random.Generator) -> Experiment:
        raise NotImplementedError

    def warmup(self) -> Experiment:
        return self.make(self.slots()[0], _rng(self.tag, self.seed, 0))

    def round(self, index: int) -> list:
        rng = _rng(self.tag, self.seed, index + 1)
        slots = self.slots()
        return [self.make(slots[i], rng) for i in rng.permutation(len(slots))]


# ----------------------------------------------------------- profile_sweep

DENSE = ("jordan", "tridiag_laplacian", "heat_conv", "shift_periodic")


class ProfileSweep(Workload):
    """beurling_profile, converse_profile and sector_report on dense and
    diagonal zoo generators at dimensions 64 to 256.

    Round of 22, cheapest first: 4 dense p = inf profiles at 64 and a
    diagonal one at 128; 4 dense p = 2 profiles at 64; 4 dense p = 2
    converse profiles at 64 (the median); a diagonal profile at 256 and
    4 dense p = 2 profiles at 128; 4 sector reports at 64 (the 90th
    percentile).
    """

    tag = 1
    nominal_round_s = 2.7

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.gens = {}
        for name in DENSE:
            for dim in (64, 128):
                self.gens[name, dim] = zoo.build(name, dim)
        self.gens["skew_diag", 128] = zoo.build("skew_diag", 128)
        self.gens["diag_ray", 256] = zoo.build("diag_ray", 256)

    def slots(self):
        s = [("beurling", name, 64, INF) for name in DENSE]
        s += [("beurling", "skew_diag", 128, INF)]
        s += [("beurling", name, 64, 2.0) for name in DENSE]
        s += [("converse", name, 64, 2.0) for name in DENSE]
        s += [("beurling", "diag_ray", 256, 2.0)]
        s += [("beurling", name, 128, 2.0) for name in DENSE]
        s += [("sector", name, 64, 2.0) for name in DENSE]
        return s

    def make(self, slot, rng):
        kind, name, dim, p = slot
        gen = self.gens[name, dim]
        space = GridSpace.unit(dim, p)
        if kind == "sector":
            return self._sector(name, dim, gen, space, rng)
        coeffs = _root_poly(rng, 2)
        grid = checks.log_grid(float(rng.uniform(0.5, 2.0)), 3.0, 3)
        N, K = (2, float(rng.uniform(0.5, 2.0))) if kind == "converse" else (1, 0.0)
        sub = _pick(rng, grid.size, 2)
        params = {"kind": kind, "name": name, "dim": dim, "p": p, "coeffs": coeffs,
                  "t_max": float(grid[0]), "N": N, "K": K, "subsample": sub}
        f = Polynomial(coeffs)

        def run():
            if kind == "converse":
                return semigroup.converse_profile(gen, f, N, K, grid, space)
            return semigroup.beurling_profile(gen, f, grid, space)

        def check(prof):
            checks.check_profile(prof.values, prof.t_grid, prof.disc_value,
                                 coeffs=coeffs, name=name, dim=dim, p=p, N=N, K=K, matrix=gen.matrix, subsample=sub)

        return Experiment(kind, params, run, check)

    def _sector(self, name, dim, gen, space, rng):
        theta = float(rng.uniform(0.5, 2.5))
        zeta = complex(np.exp(1j * theta * rng.choice([-1.0, 1.0])))
        t0 = float(rng.uniform(0.5, 1.5))
        th = math.atan2(zeta.imag, zeta.real)
        th_pos = th if th > 0.0 else th + 2.0 * math.pi
        ts = t0 * 10.0 ** (-3.0 * np.arange(4) / 3.0)
        inside = 0.5 * th_pos / t0    # below theta / t0: not admissible
        alpha = np.concatenate([th_pos / ts, (th_pos - 2.0 * math.pi) / ts,
                                [inside, -inside]])
        sub = _pick(rng, 8, 2)
        params = {"kind": "sector", "name": name, "dim": dim, "zeta": [zeta.real, zeta.imag],
                  "t0": t0, "subsample": sub}

        def run():
            return semigroup.sector_report(gen, zeta, t0, space, alpha)

        def check(rep):
            checks.check_sector(rep.alpha_grid, rep.resolvent_sups, rep.admissible,
                                zeta=zeta, t0=t0, name=name, dim=dim, p=space.p, matrix=gen.matrix, subsample=sub)

        return Experiment("sector", params, run, check)


# ----------------------------------------------------------- rbound_search

RB_GENS = ("heat_conv", "tridiag_laplacian", "jordan", "shift_periodic")


class RBoundSearch(Workload):
    """rbound_estimate (exact, with ascent), r_beurling_profile and Monte
    Carlo rademacher_norm on precomputed families of dimension 8 and 16.

    Round of 20, cheapest first: 13 Monte Carlo averages at dimensions 8
    and 16 (the median); 6 estimates with ascent at dimension 8 (the 90th
    percentile); 1 R-profile at dimension 8, which runs three ascents.
    """

    tag = 2
    nominal_round_s = 2.8
    budget = 8
    cap = 2          # exact enumeration cap: selections of two operators

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        rng = _rng(self.tag, seed)
        self.specs = {name: zoo.build(name, 8) for name in RB_GENS}
        self.families = {}
        for name in RB_GENS:
            t = checks.log_grid(float(rng.uniform(0.5, 2.0)), 2.0, 2)
            self.families[name] = [self.specs[name].semigroup(float(ti)) for ti in t]
        self.weights = {8: rng.uniform(0.5, 2.0, 8), 16: rng.uniform(0.5, 2.0, 16)}

    def slots(self):
        s = [("monte_carlo", None, 8 + 8 * (i % 2), 1.0 + i // 2 % 2) for i in range(13)]
        s += [("rbound", name, 8, p) for name, p in zip(RB_GENS + RB_GENS[:2],
                                                        (1.0, 2.0, 1.0, 2.0, 2.0, 1.0))]
        s += [("r_profile", "heat_conv", 8, 2.0)]
        return s

    def _space(self, dim, p):
        w = self.weights[dim] if p == 1.0 else np.ones(dim)
        return GridSpace(dim, w, p), w

    def make(self, slot, rng):
        kind, name, dim, p = slot
        space, w = self._space(dim, p)
        cseed = int(rng.integers(0, 2 ** 31))
        params = {"kind": kind, "name": name, "dim": dim, "p": p, "seed": cseed}
        if kind == "monte_carlo":
            X = rng.standard_normal((10, dim)) + 1j * rng.standard_normal((10, dim))
            cfg = rbound.RademacherConfig(p=2.0, mode="monte_carlo", seed=cseed,
                                          mc_samples=16384)
            params["x00"] = complex(X[0, 0]).real

            def run():
                return rbound.rademacher_norm(X, space, cfg)

            def check(r):
                checks.check_monte_carlo(r.value, r.se, vectors=X, p=p, weights=w, rad_p=2.0)

            return Experiment(kind, params, run, check)

        cfg = rbound.RademacherConfig(p=2.0, mode="exact", seed=cseed, exact_cap=self.cap)
        if kind == "rbound":
            fam = self.families[name]

            def run():
                return rbound.rbound_estimate(fam, space, cfg, self.budget)

            def check(est):
                checks.check_rbound(est.value, est.witness_indices, est.witness_vectors,
                                    est.trials, family=fam, p=p, weights=w, rad_p=2.0,
                                    budget=self.budget)

            return Experiment(kind, params, run, check)

        gen = self.specs[name]
        coeffs = _root_poly(rng, 2)
        grid = checks.log_grid(float(rng.uniform(0.5, 2.0)), 2.0, 2)
        params.update(coeffs=coeffs, t_max=float(grid[0]))
        f = Polynomial(coeffs)

        def run():
            return rbound.r_beurling_profile(gen, f, grid, space, cfg, budget=4)

        def check(prof):
            mats = [checks.poly_of_expm(coeffs, gen.matrix, t) for t in grid]
            checks.check_r_profile(prof.epsilons, prof.values, t_grid=grid, mats=mats)
            checks.check_disc_value(prof.disc_value, coeffs)

        return Experiment(kind, params, run, check)


# ----------------------------------------------------------- cosine_series

class CosineSeries(Workload):
    """Cosine families from generators and groups, d'Alembert residuals,
    Laplace-transform checks, zero-two ladders and Fattorini series.

    Round of 21, cheapest first: 4 constructions with the generator check,
    3 d'Alembert batches and the skew_diag ladder; 6 Laplace checks (the
    median); 3 more zero-two ladders; a Fattorini series at dimension 8;
    3 Fattorini series at dimension 16 (the 90th percentile).
    """

    tag = 3
    nominal_round_s = 1.6

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.mats = {(name, dim): zoo.build(name, dim).matrix
                     for name in ("tridiag_laplacian", "heat_conv", "diag_ray",
                                  "jordan", "skew_diag", "shift_periodic")
                     for dim in (8, 16, 32)}
        self.fams = {(name, dim): cosine.cosine_from_generator(self.mats[name, dim], verify=False)
                     for name in ("tridiag_laplacian", "heat_conv", "diag_ray")
                     for dim in (8, 16)}

    def slots(self):
        s = [("construct", name, 16) for name in ("tridiag_laplacian", "heat_conv",
                                                  "skew_diag", "shift_periodic")]
        s += [("dalembert", name, 16) for name in ("tridiag_laplacian", "heat_conv", "diag_ray")]
        s += [("zero_two", name, 32) for name in ("skew_diag", "shift_periodic",
                                                  "jordan", "tridiag_laplacian")]
        s += [("laplace", name, dim) for name in ("tridiag_laplacian", "heat_conv", "diag_ray")
              for dim in (8, 16)]
        s += [("fattorini", "tridiag_laplacian", 8)]
        s += [("fattorini", name, 16) for name in ("tridiag_laplacian", "heat_conv", "diag_ray")]
        return s

    def _generator(self, name, dim):
        """The generator of the cosine family: B^2 for the group entries."""
        A = self.mats[name, dim]
        return A @ A if name in ("skew_diag", "shift_periodic") else A

    def make(self, slot, rng):
        kind, name, dim = slot
        params = {"kind": kind, "name": name, "dim": dim}
        maker = getattr(self, "_" + kind)
        return maker(name, dim, rng, params)

    def _construct(self, name, dim, rng, params):
        A = self.mats[name, dim]
        times = [float(t) for t in rng.uniform(0.05, 1.5, 2)]
        params["times"] = times
        group = name in ("skew_diag", "shift_periodic")
        gen = self._generator(name, dim)

        def run():
            fam = (cosine.cosine_from_group(A) if group
                   else cosine.cosine_from_generator(A))
            return [fam.sample(t)[0] for t in times]

        def check(samples):
            checks.check_cosine_samples(samples, times, generator=gen)

        return Experiment("construct", params, run, check)

    def _dalembert(self, name, dim, rng, params):
        fam = self.fams[name, dim]
        pairs = [tuple(float(v) for v in rng.uniform(0.0, 1.0, 2)) for _ in range(3)]
        params["pairs"] = pairs

        def run():
            return [cosine.dalembert_residual(fam, t, s) for t, s in pairs]

        def check(residuals):
            for r, (t, s) in zip(residuals, pairs):
                checks.check_dalembert(r, t, s, generator=fam.generator)

        return Experiment("dalembert", params, run, check)

    def _laplace(self, name, dim, rng, params):
        fam = self.fams[name, dim]
        lam = float(rng.uniform(2.5, 3.3))
        params["lam"] = lam

        def run():
            return cosine.laplace_transform_check(fam, lam)

        def check(rep):
            checks.require(rep["ok"] and rep["residual"] <= 1e-6,
                           f"Laplace check failed: residual {rep['residual']:.3e}")

        return Experiment("laplace", params, run, check)

    def _zero_two(self, name, dim, rng, params):
        group = name in ("skew_diag", "shift_periodic")
        dims = (8, 16, 32)
        t_max = float(rng.uniform(2.0, 2.5) if group else rng.uniform(0.3, 0.6))
        grid = checks.log_grid(t_max, 2.0, 8)
        sub = _pick(rng, grid.size, 2)
        params.update(t_max=t_max, subsample=sub)
        mats = [self.mats[name, d] for d in dims]
        gens = [self._generator(name, d) for d in dims]

        def run():
            make = cosine.cosine_from_group if group else cosine.cosine_from_generator
            fams = [make(M, verify=False) for M in mats]
            return cosine.zero_two_profile(fams, grid, 2.0)

        def check(rep):
            checks.check_zero_two(rep.verdict, rep.plateaus, rep.values, rep.t_grid,
                                  generators=gens, bounded=not group, subsample=sub)

        return Experiment("zero_two", params, run, check)

    def _fattorini(self, name, dim, rng, params):
        fam = self.fams[name, dim]
        # Within these ranges the grid is refined exactly once, so the cost
        # of a slot does not depend on the seed.
        omega = float(rng.uniform(0.2, 0.8))
        t, nodes = (0.5, 64) if dim == 8 else (0.4, 32)
        params.update(omega=omega, t=t, nodes=nodes)

        def run():
            return cosine.fattorini_series(fam, omega, 4, t, quad_nodes=nodes)

        def check(rep):
            checks.check_fattorini(rep.partial_sums[-1], generator=fam.generator,
                                   omega=omega, t=t)

        return Experiment("fattorini", params, run, check)


# ------------------------------------------------------------- cli_reports

class CliReports(Workload):
    """Small experiments through semireg.cli.main, reports written to a
    scratch directory.

    Round of 20, cheapest first: 4 zoo builds; 8 beurling reports (the
    median); 4 sector reports; an interpolate report and 3 extrapolate
    reports at p = 4 (the 90th percentile).
    """

    tag = 4
    nominal_round_s = 1.5

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.counter = 0

    def slots(self):
        s = [("zoo", name, dim) for name, dim in (("jordan", 8), ("tridiag_laplacian", 16),
                                                  ("heat_conv", 32), ("shift_periodic", 16))]
        s += [("beurling", name, dim, fmt) for (name, dim), fmt in zip(
            (("diag_ray", 32), ("skew_diag", 16), ("tridiag_laplacian", 32), ("heat_conv", 16),
             ("shift_periodic", 32), ("tridiag_laplacian", 8), ("heat_conv", 32),
             ("diag_ray", 8)), ("json", "csv") * 4)]
        s += [("sector", name, dim, fmt) for (name, dim), fmt in zip(
            (("tridiag_laplacian", 16), ("heat_conv", 8), ("diag_ray", 16), ("heat_conv", 16)),
            ("json", "csv") * 2)]
        # Extrapolation stays on heat_conv at 16, where the smallest decade of
        # every grid drawn here already holds the largest ||f(T(t))||_2.
        s += [("interpolate", "tridiag_laplacian", 16)]
        s += [("extrapolate", "heat_conv", 16)] * 3
        return s

    def _path(self, suffix):
        self.counter += 1
        return os.path.join(self.scratch, f"{self.counter:06d}.{suffix}")

    @staticmethod
    def _call(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def make(self, slot, rng):
        kind, name, dim = slot[:3]
        fmt = slot[3] if len(slot) > 3 else "json"
        path = self._path("mat" if kind == "zoo" else fmt)
        maker = getattr(self, "_" + kind)
        argv, check_report = maker(name, dim, fmt, path, rng)
        params = {"kind": kind, "argv": [a if a != path else "<out>" for a in argv]}

        def run():
            return self._call(argv)

        def check(result):
            code, stdout = result
            try:
                checks.require(code == 0, f"semireg {' '.join(argv)} exited with {code}")
                checks.require(path in stdout, f"no 'wrote ... {path}' line on stdout")
                check_report(path)
            finally:
                if os.path.exists(path):
                    os.unlink(path)

        return Experiment(kind, params, run, check)

    def _zoo(self, name, dim, fmt, path, rng):
        def check(p):
            checks.assert_close("zoo build file", np.abs(checks.read_matrix_numpy(p)
                                                          - checks.closed_form_matrix(name, dim)),
                                np.zeros((dim, dim)), 0.0, checks.ZOO_ATOL)
        return ["zoo", "build", "--zoo", name, "--dim", str(dim), "--out", path], check

    def _beurling(self, name, dim, fmt, path, rng):
        coeffs = _root_poly(rng, int(rng.integers(1, 3)))
        t_max = float(rng.uniform(0.5, 2.0))
        grid = checks.log_grid(t_max, 3.0, 4)
        argv = ["beurling", "--zoo", name, "--dim", str(dim), "--poly", _poly_arg(coeffs),
                "--t-max", repr(t_max), "--decades", "3", "--points-per-decade", "4",
                "--out", path]
        lam = checks.spectrum(name, dim)

        def check(p):
            rep = checks.read_report(p, fmt, grid.size)
            if fmt == "json":
                t = np.asarray(rep["results"]["t"], dtype=float)
                values = rep["results"]["values"]
                checks.check_disc_value(rep["results"]["disc_value"], coeffs)
            else:
                t = np.array([float(r[0]) for r in rep["rows"]])
                values = [float(r[1]) for r in rep["rows"]]
            checks.assert_close("beurling report t", t, grid, 1e-15)
            checks.assert_close("beurling report values", values,
                                checks.spectral_profile(coeffs, lam, t),
                                checks.RTOL_SPECTRAL, 1e-12)
        return argv, check

    def _sector(self, name, dim, fmt, path, rng):
        theta = float(rng.uniform(0.5, 2.5))
        zeta = complex(np.exp(1j * theta))
        t0 = float(rng.uniform(0.5, 1.5))
        n_alpha = 8
        argv = ["sector", "--zoo", name, "--dim", str(dim),
                "--zeta", f"[{zeta.real!r},{zeta.imag!r}]", "--t0", repr(t0),
                "--alpha-points", str(n_alpha), "--alpha-decades", "3", "--out", path]
        ts = t0 * 10.0 ** (-3.0 * np.arange(n_alpha) / (n_alpha - 1))
        alpha = np.concatenate([theta / ts, (theta - 2.0 * math.pi) / ts])
        lam = checks.spectrum(name, dim)
        # |alpha| >= theta / t0 holds for every alpha here (ts <= t0), so the
        # whole grid is admissible and C is the largest closed-form value.
        want = np.abs(alpha) / np.min(np.abs(1j * alpha[:, None] - lam[None, :]), axis=1)

        def check(p):
            rep = checks.read_report(p, fmt, alpha.size)
            if fmt == "json":
                checks.assert_close("sector report C", rep["results"]["C"],
                                    np.max(want), checks.RTOL_SPECTRAL)
                return
            rows = rep["rows"]
            checks.require(all(r[3] == "True" for r in rows),
                           "sector CSV marks an alpha with |alpha| >= theta / t0 inadmissible")
            checks.assert_close("sector CSV alpha", [float(r[0]) for r in rows], alpha, 1e-12)
            checks.assert_close("sector CSV resolvent_sup", [float(r[1]) for r in rows],
                                want, checks.RTOL_SPECTRAL)
        return argv, check

    def _interpolate(self, name, dim, fmt, path, rng):
        argv = ["interpolate", "--zoo", name, "--dim", str(dim), "--p1", "2",
                "--p2", "inf", "--p-target", "4", "--t-max", repr(float(rng.uniform(0.8, 1.2))),
                "--decades", "2", "--points-per-decade", "1", "--trials", "20",
                "--seed", str(int(rng.integers(0, 2 ** 31))), "--out", path]

        def check(p):
            res = checks.read_report(p, "json")["results"]
            checks.require(res["riesz_thorin_ok"] and res["logconvexity_violations"] == 0
                           and res["ok"], f"interpolate report not ok: {res}")
        return argv, check

    def _extrapolate(self, name, dim, fmt, path, rng):
        coeffs = _root_poly(rng, 1)
        argv = ["extrapolate", "--zoo", name, "--dim", str(dim), "--poly", _poly_arg(coeffs),
                "--p1", "2", "--p2", "inf", "--p-target", "4",
                "--t-max", repr(float(rng.uniform(0.8, 1.2))), "--decades", "2",
                "--points-per-decade", "1", "--n-range", "[1,2]", "--out", path]

        def check(p):
            res = checks.read_report(p, "json")["results"]
            checks.require(res["all_bounds_hold"], f"extrapolate chain bound broken: {res}")
        return argv, check


WORKLOADS = {
    "profile_sweep": ProfileSweep,
    "rbound_search": RBoundSearch,
    "cosine_series": CosineSeries,
    "cli_reports": CliReports,
}
