"""Command-line front end: configuration, orchestration, reports.

One experiment per process.  Reports go to stdout as JSON unless an
output path is given; CSV output holds one row per grid point with the
column order fixed by the header line.  A JSON config file may replace
flags; explicit flags win.  Exit codes: 0 done, 2 invalid input,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile
import time
from typing import Optional

import numpy as np

from .cosine import (cosine_from_generator, cosine_from_group,
                     dalembert_residual, fattorini_series, generator_residual,
                     laplace_transform_check, zero_two_profile)
from .discpoly import Polynomial
from .errors import BadParams, NumericalError, ValidationError
from .interp import (InterpolationTriple, KernelSpec, extrapolation_bench,
                     gaussian_apply, gaussian_estimate_check, gaussian_kernel,
                     gaussian_square_function_bench, kernel_mass_defect,
                     lp_logconvexity_check, maximal_domination_check,
                     riesz_thorin_check)
from .linalg import op_norm
from .rbound import RademacherConfig, r_beurling_profile, rbound_estimate
from .semigroup import (GeneratorSpec, beurling_profile, converse_profile,
                        log_time_grid, mild_solution, sector_report)
from .spaces import GridSpace
from . import cosine, interp, linalg, rbound, semigroup, zoo

__all__ = ["main", "read_matrix_file", "write_matrix_file"]

# Default tolerances, echoed into every report so it is self-contained;
# a value a module applies is read from that module.
TOLERANCES = {
    "bernstein": 1e-7,
    "bt_pole_distance": rbound._BT_MIN_POLE_DIST,
    "bt_residual": rbound._BT_RESIDUAL_TOL,
    "dalembert": 1e-8,
    "fattorini_refine": cosine._FATTORINI_REFINE,
    "fattorini_tail": cosine._FATTORINI_TAIL,
    "kato_identity": 1e-6,
    "laplace": 1e-6,
    "mc_se_rel": rbound._SE_REL_CAP,
    "periodization": interp._PERIODIZATION_TOL,
    "phase": semigroup._PHASE_TOL,
    "quad_frobenius": linalg._QUAD_TOL,
    "quad_pointwise": 1e-9,
    "refinement_stability": 0.10,
    "resolvent_cond_cap": linalg._COND_CAP,
    "riesz_thorin": 1e-9,
    "sector_chain": 1e-6,
    "zero_two_high": cosine._PLATEAU_HIGH,
    "zero_two_low": cosine._PLATEAU_LOW,
}

_MARGIN_THRESHOLD = 0.05


# ---------------------------------------------------------------- parsing

def _json_arg(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadParams(f"{what} is not valid JSON: {exc}") from None


def _as_complex(entry, what: str) -> complex:
    if isinstance(entry, (int, float)):
        return complex(entry)
    if (isinstance(entry, (list, tuple)) and len(entry) == 2
            and all(isinstance(v, (int, float)) for v in entry)):
        return complex(entry[0], entry[1])
    raise BadParams(f"{what} entries must be numbers or [re, im] pairs")


def parse_poly(text: str) -> Polynomial:
    """Coefficient list, lowest order first; entries are numbers or [re, im]."""
    data = _json_arg(text, "--poly")
    if not isinstance(data, list) or not data:
        raise BadParams("--poly must be a nonempty JSON list of coefficients")
    return Polynomial([_as_complex(v, "--poly") for v in data])


# Casts: each takes a flag's text or a config-file value.  A ValueError or
# TypeError becomes BadParams naming the flag (see Resolver).

def _number_list(v) -> list:
    if isinstance(v, str):
        v = json.loads(v)
    if not (isinstance(v, list) and v
            and all(isinstance(x, (int, float)) for x in v)):
        raise ValueError("expected a nonempty JSON list of numbers")
    return v


def _complex(v) -> complex:
    return _as_complex(json.loads(v) if isinstance(v, str) else v, "--zeta")


def _zoo_params(v) -> dict:
    """Repeated key=JSON items from --param, or a config-file object."""
    if isinstance(v, dict):
        return dict(v)
    params = {}
    for item in v:
        if "=" not in item:
            raise BadParams(f"--param needs key=value, got {item!r}")
        k, text = item.split("=", 1)
        params[k] = _json_arg(text, f"--param {k}")
    return params


def _one_of(*names: str):
    def cast(v):
        if v not in names:
            raise ValueError(f"expected one of {', '.join(names)}")
        return v
    return cast


# Every flag once: key (argparse dest and config-file name) -> (cast, help).
_FLAGS = {
    **dict.fromkeys(("seed", "dim", "points_per_decade", "n_power",
                     "alpha_points", "mc_samples", "exact_cap", "budget",
                     "pairs", "n_max", "nodes", "trials", "ambient_dim",
                     "points"), (int, None)),
    # Exponents among these: float reads 'inf'.
    **dict.fromkeys(("p", "rad_p", "p1", "p2", "p_target", "t_max",
                     "decades", "k_factor", "t0", "alpha_decades", "lam",
                     "omega", "t", "theta", "period", "a", "c"),
                    (float, None)),
    "config": (str, "JSON config file; flags win"),
    "out": (str, "output file path"),
    "format": (_one_of("json", "csv"), "json or csv"),
    "action": (_one_of("list", "build"), "list (default) or build"),
    "zoo": (str, "zoo entry name"),
    "param": (_zoo_params, "zoo builder parameter key=JSON, repeatable"),
    "matrix_file": (str, None),
    "weights": (str, "'unit' or a weights file"),
    "poly": (str, "JSON coefficient list, lowest first"),
    "zeta": (_complex, "JSON number or [re, im]"),
    "mode": (_one_of("exact", "monte_carlo"), "exact or monte_carlo"),
    "dims": (_number_list, "JSON list of dimensions"),
    "construction": (_one_of("auto", "group", "generator"),
                     "auto, group or generator"),
    "n_range": (_number_list, "JSON list of powers N"),
    "t_list": (_number_list, "JSON list of times"),
    "tau_list": (_number_list, "JSON list of horizons"),
}


def read_matrix_file(path: str) -> np.ndarray:
    """Text format: first token is dim, then dim^2 're im' pairs, row-major."""
    try:
        with open(path) as fh:
            tokens = fh.read().split()
    except OSError as exc:
        raise BadParams(f"cannot read matrix file {path}: {exc}") from None
    if not tokens:
        raise BadParams(f"matrix file {path} is empty")
    try:
        dim = int(tokens[0])
        vals = [float(v) for v in tokens[1:]]
    except ValueError as exc:
        raise BadParams(f"matrix file {path}: {exc}") from None
    if dim < 1 or len(vals) != 2 * dim * dim:
        raise BadParams(
            f"matrix file {path}: expected {2 * dim * dim} floats after the "
            f"dimension, found {len(vals)}")
    flat = np.asarray(vals[0::2]) + 1j * np.asarray(vals[1::2])
    return flat.reshape(dim, dim)


def write_matrix_file(path: str, M: np.ndarray) -> None:
    M = np.asarray(M, dtype=complex)
    lines = [str(M.shape[0])]
    for row in M:
        lines.append(" ".join(f"{float(z.real)!r} {float(z.imag)!r}"
                              for z in row))
    _atomic_write(path, "\n".join(lines) + "\n")


class Resolver:
    """Flag value, else config-file value, else pinned default.

    Config-file keys may be spelled like the flag (``t-max``) or like the
    key (``t_max``).  Each value goes through its cast in ``_FLAGS``; a
    value the cast rejects is invalid input.  Every resolved value lands
    in the config echo of the report.
    """

    def __init__(self, ns: argparse.Namespace):
        self.ns = ns
        cfg = {}
        if ns.config:
            try:
                with open(ns.config) as fh:
                    cfg = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise BadParams(f"cannot load config {ns.config}: {exc}") from None
            if not isinstance(cfg, dict):
                raise BadParams("config file must hold a JSON object")
        self.file_cfg = {k.replace("-", "_"): v for k, v in cfg.items()}
        self.echo: dict = {}

    def __call__(self, key: str, default):
        v = getattr(self.ns, key, None)
        if v is None:
            v = self.file_cfg.get(key, default)
        if v is not None:
            try:
                v = _FLAGS[key][0](v)
            except ValidationError:
                raise
            except (TypeError, ValueError) as exc:
                raise BadParams(f"--{key.replace('_', '-')} {v!r}: {exc}") from None
        self.echo[key] = v
        return v


def _zoo_spec(r: Resolver, name: str, dim: int) -> GeneratorSpec:
    return zoo.build(name, dim, r("param", {}) or None)


def _generator(r: Resolver) -> GeneratorSpec:
    path = r("matrix_file", None)
    name = r("zoo", None)
    dim = r("dim", 64)
    if path is not None:
        M = read_matrix_file(path)
        r.echo["dim"] = M.shape[0]
        return GeneratorSpec(M, label=os.path.basename(path),
                             family_index=M.shape[0])
    if name is None:
        raise BadParams("a generator is required: --zoo NAME or --matrix-file PATH")
    return _zoo_spec(r, name, dim)


def _space(r: Resolver, dim: int) -> GridSpace:
    p = r("p", 2.0)
    wpath = r("weights", "unit")
    if wpath == "unit":
        return GridSpace.unit(dim, p)
    try:
        w = np.loadtxt(wpath).reshape(-1)
    except OSError as exc:
        raise BadParams(f"cannot read weights {wpath}: {exc}") from None
    return GridSpace(dim, w, p)


def _t_grid(r: Resolver, t_max_default: float = 1.0,
            decades_default: float = 3.0, per_decade_default: int = 16):
    return log_time_grid(r("t_max", t_max_default),
                         r("decades", decades_default),
                         r("points_per_decade", per_decade_default))


def _rad_config(r: Resolver) -> RademacherConfig:
    return RademacherConfig(
        p=r("rad_p", 2.0),
        mode=r("mode", "exact"),
        mc_samples=r("mc_samples", 4096),
        seed=r("seed", 0),
        exact_cap=r("exact_cap", 14),
    )


def _triple(r: Resolver) -> InterpolationTriple:
    p1 = r("p1", 2.0)
    p2 = r("p2", math.inf)
    target = r("p_target", None)
    if target is not None:
        tr = InterpolationTriple.from_target(p1, p2, target)
        r.echo["theta"] = tr.theta
        return tr
    theta = r("theta", 0.5)
    return InterpolationTriple(p1, p2, theta)


# ------------------------------------------------------------- reporting

def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return _jsonable(float(obj))
    if isinstance(obj, np.complexfloating):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    return repr(obj)


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".semireg-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header: list, rows: list) -> str:
    def cell(v) -> str:
        if isinstance(v, float):
            return repr(v)
        if isinstance(v, complex):
            return f"{v.real!r}+{v.imag!r}j"
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(report: dict, header: list, rows: list, r: Resolver) -> None:
    out = r("out", None)
    fmt = r("format", None)
    if fmt is None:
        fmt = ("csv" if out and out.endswith(".csv") else "json")
        r.echo["format"] = fmt
    text = (json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
            if fmt == "json" else _csv_text(header, rows))
    if out:
        _atomic_write(out, text)
        print(f"wrote {fmt} report to {out}")
    else:
        sys.stdout.write(text)


def _margin_verdict(margin: float) -> dict:
    verdict = "separated" if margin >= _MARGIN_THRESHOLD else "not_separated"
    return {"verdict": verdict, "threshold": _MARGIN_THRESHOLD,
            "margin": margin}


# -------------------------------------------------------------- commands

def cmd_beurling(r: Resolver):
    gen = _generator(r)
    f = parse_poly(r("poly", "[-1, 1]"))
    space = _space(r, gen.dim)
    grid = _t_grid(r)
    seed = r("seed", 0)
    N = r("n_power", 1)
    K = r("k_factor", 0.0)
    if N == 1 and K == 0.0:
        prof = beurling_profile(gen, f, grid, space, seed)
    else:
        prof = converse_profile(gen, f, N, K, grid, space, seed)
    results = {
        "t": prof.t_grid, "values": prof.values,
        "disc_value": prof.disc_value,
        "empirical_limsup": prof.empirical_limsup,
        "margin": prof.margin,
        "estimate": "lower_bound" if prof.estimate else "exact",
        **_margin_verdict(prof.margin),
    }
    rows = [(float(t), float(v)) for t, v in zip(prof.t_grid, prof.values)]
    return results, ["t", "value"], rows


def cmd_sector(r: Resolver):
    gen = _generator(r)
    space = _space(r, gen.dim)
    zeta = r("zeta", [-1.0, 0.0])
    t0 = r("t0", 1.0)
    seed = r("seed", 0)
    theta = math.atan2(zeta.imag, zeta.real)
    theta_pos = theta if theta > 0.0 else theta + 2.0 * math.pi
    n_alpha = r("alpha_points", 16)
    dec = r("alpha_decades", 4.0)
    if not math.isfinite(dec):
        raise BadParams(f"--alpha-decades must be finite, got {dec}")
    ts = t0 * 10.0 ** (-dec * np.arange(n_alpha) / max(n_alpha - 1, 1))
    # A t0 of 0 or a subnormal t0 leaves non-finite alphas: sector_report
    # rejects them, so they are not warned here.
    with np.errstate(divide="ignore", over="ignore"):
        alpha = np.concatenate([theta_pos / ts, (theta_pos - 2 * math.pi) / ts])
    rep = sector_report(gen, zeta, t0, space, alpha, seed)
    results = {
        "zeta": zeta, "t0": rep.t0, "K": rep.K, "M": rep.M, "C": rep.C,
        "alpha0_pos": rep.alpha0_pos, "alpha0_neg": rep.alpha0_neg,
        "k_bounded": rep.k_bounded, "bound_ok": rep.bound_ok,
        "estimate": "lower_bound" if rep.estimate else "exact",
        "verdict": "separated" if (rep.k_bounded and rep.bound_ok)
                   else "not_separated",
        "threshold": TOLERANCES["sector_chain"],
        "path": rep.path,
    }
    rows = [(float(a), float(s), float(b), bool(m))
            for a, s, b, m in zip(rep.alpha_grid, rep.resolvent_sups,
                                  rep.bounds, rep.admissible)]
    return results, ["alpha", "resolvent_sup", "bound", "admissible"], rows


def cmd_rbound(r: Resolver):
    gen = _generator(r)
    space = _space(r, gen.dim)
    cfg = _rad_config(r)
    grid = _t_grid(r, 1.0, 2.0, 8)
    budget = r("budget", 32)
    fam = [gen.semigroup(float(t)) for t in grid]
    est = rbound_estimate(fam, space, cfg, budget)
    norms = [op_norm(T, space, seed=cfg.seed).value for T in fam]
    results = {
        "r_estimate": est.value,
        "sup_op_norm": float(max(norms)),
        "witness_indices": list(est.witness_indices),
        "witness_times": [float(grid[j]) for j in est.witness_indices],
        "converged": est.converged, "trials": est.trials, "se": est.se,
        "estimate": ("exact_enumeration" if cfg.mode == "exact"
                     else "monte_carlo"),
    }
    rows = [(float(t), float(v)) for t, v in zip(grid, norms)]
    return results, ["t", "op_norm"], rows


def cmd_r_beurling(r: Resolver):
    gen = _generator(r)
    f = parse_poly(r("poly", "[-1, 1]"))
    space = _space(r, gen.dim)
    cfg = _rad_config(r)
    grid = _t_grid(r)
    budget = r("budget", 16)
    prof = r_beurling_profile(gen, f, grid, space, cfg, budget)
    margin = prof.disc_value - float(prof.values[0])
    results = {
        "epsilons": prof.epsilons, "values": prof.values,
        "disc_value": prof.disc_value, "converged": prof.converged,
        **_margin_verdict(margin),
    }
    rows = [(float(e), float(v)) for e, v in zip(prof.epsilons, prof.values)]
    return results, ["epsilon", "r_value"], rows


def cmd_cosine(r: Resolver):
    gen = _generator(r)
    fam = cosine_from_generator(gen.matrix, label=gen.label)
    t_max = r("t_max", 1.0)
    pairs = r("pairs", 20)
    seed = r("seed", 0)
    lam = r("lam", 3.0)
    rng = np.random.default_rng(seed)
    rows = []
    worst = 0.0
    for _ in range(pairs):
        t = float(rng.uniform(0.0, t_max))
        s = float(rng.uniform(0.0, t_max))
        scale = 1.0 + float(np.linalg.norm(fam.sample(t)[0], 2)
                            * np.linalg.norm(fam.sample(s)[0], 2))
        res = dalembert_residual(fam, t, s) / scale
        worst = max(worst, res)
        rows.append((t, s, res))
    lap = laplace_transform_check(fam, lam)
    results = {
        "dalembert_worst": worst,
        "dalembert_ok": worst <= TOLERANCES["dalembert"],
        "laplace": lap,
        "generator_residual": generator_residual(
            fam, 0.5 * t_max, cosine._generator_step(fam.generator)),
    }
    return results, ["t", "s", "dalembert_residual"], rows


def cmd_zero_two(r: Resolver):
    name = r("zoo", None)
    if name is None:
        raise BadParams("zero-two needs --zoo NAME")
    dims = [int(d) for d in r("dims", [16, 32, 64])]
    construction = r("construction", "auto")
    p = r("p", 2.0)
    max_dim = max(dims)
    grid = _t_grid(r, 1.0, math.log10(max_dim) + 1.0, 8)
    params = r("param", {})
    if not params:
        del r.echo["param"]         # echoed only when given
    families = []
    for d in dims:
        spec = zoo.build(name, d, params or None)
        from_group = (construction == "group"
                      or (construction == "auto"
                          and name in ("skew_diag", "shift_periodic")))
        fam = (cosine_from_group(spec.matrix, label=spec.label, verify=False)
               if from_group else
               cosine_from_generator(spec.matrix, label=spec.label,
                                     verify=False))
        families.append(fam)
    rep = zero_two_profile(families, grid, p)
    results = {
        "dims": rep.dims, "plateaus": rep.plateaus,
        "extrapolated": rep.extrapolated, "verdict": rep.verdict,
        "threshold_high": TOLERANCES["zero_two_high"],
        "threshold_low": TOLERANCES["zero_two_low"],
        "paths": rep.paths,
    }
    rows = [(d, float(t), float(v))
            for d, vals in zip(rep.dims, rep.values)
            for t, v in zip(rep.t_grid, vals)]
    return results, ["dim", "t", "value"], rows


def cmd_fattorini(r: Resolver):
    gen = _generator(r)
    omega = r("omega", 0.5)
    n_max = r("n_max", 8)
    t = r("t", 0.8)
    nodes = r("nodes", 128)
    fam = cosine_from_generator(gen.matrix, label=gen.label)
    rep = fattorini_series(fam, omega, n_max, t, quad_nodes=nodes)
    results = {
        "omega": rep.omega, "t": rep.t, "n_max": rep.n_max,
        "nodes": rep.nodes, "refinements": rep.refinements,
        "final_error": rep.final_error, "bound_ok": rep.bound_ok,
        "converged": rep.final_error <= TOLERANCES["fattorini_tail"],
        "path": rep.path,
    }
    rows = [(n, float(rep.term_norms[n]), float(rep.term_bounds[n]),
             float(rep.partial_errors[n])) for n in range(rep.n_max + 1)]
    return results, ["n", "term_norm", "term_bound", "partial_error"], rows


def cmd_interpolate(r: Resolver):
    gen = _generator(r)
    tr = _triple(r)
    seed = r("seed", 0)
    trials = r("trials", 100)
    grid = _t_grid(r)
    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(trials):
        x = rng.standard_normal(gen.dim) + 1j * rng.standard_normal(gen.dim)
        if not lp_logconvexity_check(x, tr).ok:
            violations += 1
    rows = []
    all_ok = True
    for t in grid:
        chk = riesz_thorin_check(gen.semigroup(float(t)), tr, seed=seed)
        rows.append((float(t), chk["norm_p"], chk["rhs"], chk["ok"]))
        all_ok = all_ok and chk["ok"]
    results = {
        "p1": tr.p1, "p2": tr.p2, "p": tr.p,
        "theta": tr.theta, "theta_first": tr.theta_first,
        "logconvexity_trials": trials, "logconvexity_violations": violations,
        "riesz_thorin_ok": all_ok,
        "ok": all_ok and violations == 0,
    }
    return results, ["t", "norm_p", "interpolated_bound", "ok"], rows


def cmd_extrapolate(r: Resolver):
    gen = _generator(r)
    f = parse_poly(r("poly", "[-1, 1]"))
    tr = _triple(r)
    n_range = r("n_range", list(range(1, 13)))
    grid = _t_grid(r)
    rep = extrapolation_bench(gen, f, tr, grid, n_range)
    results = {
        "rho": rep.rho, "sup_norm_p2": rep.sup_norm_p2,
        "theta": rep.theta, "theta_first": rep.theta_first,
        "smallest_passing_n": rep.smallest_passing_n,
        "status": rep.status,
        "all_bounds_hold": all(rep.ok_grid),
    }
    rows = [(N, float(c), float(m), bool(ok))
            for N, c, m, ok in zip(rep.n_values, rep.chain_values,
                                   rep.measured_sup, rep.ok_grid)]
    return results, ["N", "chain_bound", "measured_sup", "ok"], rows


def cmd_gaussian(r: Resolver):
    spec = KernelSpec(
        ambient_dim=r("ambient_dim", 1),
        points=r("points", 64),
        period=r("period", 20.0),
        a=r("a", 1.0),
        c=r("c", 1.0),
    )
    # Defaults sit where the grid resolves the kernel: alias error at the
    # Nyquist scale decays like exp(-t (2 pi / h)^2), so small t needs a
    # finer grid or a shorter period.
    t_list = r("t_list", [0.2, 0.4, 0.8])
    seed = r("seed", 0)
    trials = r("trials", 8)
    rng = np.random.default_rng(seed)
    probe = rng.standard_normal(spec.size)
    rows = []
    for t in t_list:
        t = float(t)
        defect = kernel_mass_defect(spec, t)
        # Split form of the semigroup law keeps every evaluation time
        # inside the requested list, so the periodization guard sees
        # nothing beyond max(t_list).
        half = gaussian_apply(spec, 0.5 * t, gaussian_apply(spec, 0.5 * t,
                                                            probe))
        full = gaussian_apply(spec, t, probe)
        resid = float(np.max(np.abs(half - full)) /
                      max(np.max(np.abs(full)), 1e-300))
        rows.append((t, defect, resid))
    dom = gaussian_estimate_check(
        lambda tt, f: gaussian_apply(spec, tt, f), spec,
        t_list, [rng.standard_normal(spec.size) for _ in range(3)])
    maxdom = maximal_domination_check(spec, probe, t_list)
    fine_probe = probe.reshape(spec.shape)
    for axis in range(spec.ambient_dim):
        fine_probe = np.repeat(fine_probe, 2, axis=axis)
    maxdom_fine = maximal_domination_check(spec.refine(),
                                           fine_probe.reshape(-1), t_list)
    move = (abs(maxdom_fine["fitted_c"] - maxdom["fitted_c"])
            / max(maxdom["fitted_c"], 1e-300))
    sq = gaussian_square_function_bench(spec, trials=trials, seed=seed)
    results = {
        "kernel_zero_value": float(gaussian_kernel(1.0, 0.0)),
        "kernel_zero_expected": (4.0 * math.pi) ** -0.5,
        "domination_fitted_c": dom["fitted_c"],
        "maximal_fitted_c": maxdom["fitted_c"],
        "maximal_fitted_c_refined": maxdom_fine["fitted_c"],
        "maximal_stable": move < TOLERANCES["refinement_stability"],
        "square_function": sq,
    }
    return results, ["t", "mass_defect", "semigroup_residual"], rows


def cmd_maxreg(r: Resolver):
    gen = _generator(r)
    p = r("p", 2.0)
    tau_list = r("tau_list", [0.5, 1.0])
    seed = r("seed", 0)
    rng = np.random.default_rng(seed)
    n_modes = 3
    amps = rng.standard_normal((n_modes, gen.dim))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n_modes)

    def forcing(t: float) -> np.ndarray:
        out = np.zeros(gen.dim)
        for k in range(n_modes):
            out = out + math.cos((k + 1.0) * t + phases[k]) * amps[k]
        return out

    rows = []
    for tau in tau_list:
        _, ratio = mild_solution(gen, forcing, float(tau), p)
        rows.append((float(tau), float(ratio)))
    results = {"p": p, "ratios": {repr(t): v for t, v in rows}}
    return results, ["tau", "maxreg_ratio"], rows


def cmd_zoo(r: Resolver):
    action = r("action", "list")
    if action == "build":
        name = r("zoo", None)
        out = r("out", None)
        if name is None or out is None:
            raise BadParams("zoo build needs --zoo NAME and --out PATH")
        spec = _zoo_spec(r, name, r("dim", 64))
        write_matrix_file(out, spec.matrix)
        print(f"wrote matrix file {out}")
        return None, [], []
    rows = [(e.name, e.expected or "unknown", e.notes)
            for e in (zoo.CATALOG[n] for n in zoo.entry_names())]
    results = {"entries": [{"name": n, "expected": x, "notes": d}
                           for n, x, d in rows]}
    return results, ["name", "expected", "notes"], rows


# Flags every subcommand takes, and flag groups read by the shared helpers.
_COMMON = ("config", "seed", "out", "format")
_GENERATOR = ("matrix_file", "zoo", "dim", "param")
_SPACE = ("p", "weights")
_GRID = ("t_max", "decades", "points_per_decade")
_RBOUND = ("rad_p", "mode", "mc_samples", "exact_cap", "budget")
_TRIPLE = ("p1", "p2", "p_target", "theta")

# Subcommand -> (handler, the flags it reads besides _COMMON).
COMMANDS = {
    "beurling": (cmd_beurling, _GENERATOR + ("poly",) + _SPACE + _GRID
                 + ("n_power", "k_factor")),
    "sector": (cmd_sector, _GENERATOR + _SPACE
               + ("zeta", "t0", "alpha_points", "alpha_decades")),
    "rbound": (cmd_rbound, _GENERATOR + _SPACE + _RBOUND + _GRID),
    "r-beurling": (cmd_r_beurling, _GENERATOR + ("poly",) + _SPACE
                   + _RBOUND + _GRID),
    "cosine": (cmd_cosine, _GENERATOR + ("t_max", "pairs", "lam")),
    "zero-two": (cmd_zero_two, ("zoo", "param", "dims", "construction", "p")
                 + _GRID),
    "fattorini": (cmd_fattorini, _GENERATOR + ("omega", "n_max", "t", "nodes")),
    "interpolate": (cmd_interpolate, _GENERATOR + _TRIPLE + ("trials",) + _GRID),
    "extrapolate": (cmd_extrapolate, _GENERATOR + ("poly",) + _TRIPLE
                    + ("n_range",) + _GRID),
    "gaussian": (cmd_gaussian, ("ambient_dim", "points", "period", "a", "c",
                                "t_list", "trials")),
    "maxreg": (cmd_maxreg, _GENERATOR + ("p", "tau_list")),
    "zoo": (cmd_zoo, ("action", "zoo", "dim", "param")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semireg",
        description="Numerical laboratory for semigroup regularity "
                    "at small times: profiles, sector reports, randomized "
                    "bounds, cosine families, interpolation and kernel checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys) in COMMANDS.items():
        # No prefixes: a flag the command does not read must not be taken
        # for one it does (``--t`` for ``--t-max``, ``--dim`` for ``--dims``).
        sp = sub.add_parser(name, allow_abbrev=False)
        for key in _COMMON + keys:
            help_ = _FLAGS[key][1]
            if key == "action":         # zoo's optional positional
                sp.add_argument(key, nargs="?", help=help_)
            else:
                sp.add_argument("--" + key.replace("_", "-"), help=help_,
                                action="append" if key == "param" else "store")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building costs far more than
    parsing, and parsing leaves no state in it."""
    return build_parser()


def main(argv: Optional[list] = None) -> int:
    ns = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        r = Resolver(ns)
        r("seed", 0)
        results, header, rows = COMMANDS[ns.command][0](r)
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if results is None:
        return 0
    report = {
        "command": ns.command,
        "config": r.echo,
        "tolerances": TOLERANCES,
        "results": results,
        "wall_time_s": time.perf_counter() - started,
    }
    _emit(report, header, rows, r)
    return 0


if __name__ == "__main__":
    sys.exit(main())
