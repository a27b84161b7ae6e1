#!/usr/bin/env python3
"""Closed-loop benchmark for semireg: one workload, one caller, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports semireg from ``src/``.  The
process builds the workload from the seed, runs one untimed warm-up
experiment, then issues experiments one after another -- each only after
the previous one returned -- in whole rounds until the program has been
busy for ``--seconds``.  The clock stops while the benchmark checks an
output.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

A traced run wraps semireg's public functions (see tracing.py), runs a
fixed number of rounds that depends only on ``--seconds`` and the
workload, so that its counts repeat exactly for a seed, and writes its
spans to ``bench/out/trace-<workload>.npz``.
"""

import os

# One BLAS / OpenMP thread, fixed before numpy loads.  With the default
# thread pool on a two-core machine, complex products at sizes 48-64
# stall for ~16 ms instead of ~0.05 ms in some processes and not others.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

_T0 = time.perf_counter()


def _age_at_start() -> float:
    """Seconds between process start and the line above, from /proc."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
        age = uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return 0.0
    return age if 0.0 <= age < 60.0 else 0.0


_AGE = _age_at_start()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WALL_CAP_S = 120.0          # no new round starts after this much wall time

WORKLOADS = ("profile_sweep", "rbound_search", "cosine_series", "cli_reports")

# Per-layer metrics printed by a traced run, in BENCHMARK.json order.
PER_LAYER = (
    "zoo.build.calls", "zoo.build.self_s",
    "cli.main.calls", "cli.main.self_s",
    "linalg.mat_exp.calls", "linalg.mat_exp.dense_calls", "linalg.mat_exp.self_s",
    "linalg.op_norm.calls", "linalg.op_norm.self_s",
    "linalg.op_norm.iterative_calls", "linalg.op_norm.iterative_self_s",
    "linalg.resolvent.calls", "linalg.resolvent.self_s",
    "linalg.quad_strong_integral.calls", "linalg.quad_strong_integral.nodes",
    "linalg.quad_strong_integral.self_s",
    "discpoly.eval_matrix.calls", "discpoly.eval_matrix.self_s",
    "discpoly.disc_norm.calls", "discpoly.disc_norm.self_s",
    "spaces.GridSpace.norm_rows.calls", "spaces.GridSpace.norm_rows.rows",
    "spaces.GridSpace.norm_rows.self_s",
    "semigroup.GeneratorSpec.semigroup.calls",
    "semigroup.GeneratorSpec.semigroup.distinct",
    "semigroup.beurling_profile.self_s", "semigroup.converse_profile.self_s",
    "semigroup.sector_report.self_s",
    "rbound.rbound_estimate.calls", "rbound.rbound_estimate.trials",
    "rbound.rbound_estimate.self_s",
    "rbound.rademacher_norm.calls", "rbound.rademacher_norm.self_s",
    "rbound.r_beurling_profile.self_s",
    "cosine.CosineFamily.sample.calls", "cosine.CosineFamily.sample.distinct",
    "cosine.CosineFamily.sample.self_s",
    "cosine.fattorini_series.nodes", "cosine.fattorini_series.refinements",
    "cosine.fattorini_series.self_s",
    "cosine.zero_two_profile.self_s", "cosine.laplace_transform_check.self_s",
    "cosine.dalembert_residual.self_s",
    "interp.riesz_thorin_check.self_s", "interp.extrapolation_bench.self_s",
)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _note(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


def _quantiles(latencies):
    if len(latencies) < 2:
        return latencies[0], latencies[0]
    return (statistics.median(latencies),
            statistics.quantiles(latencies, n=10, method="inclusive")[8])


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "semireg" / "__init__.py").is_file():
        _note(f"semireg sources not found under {ROOT / 'src'}; run from a checkout")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import workloads

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="scratch-") as scratch:
        cls = workloads.WORKLOADS[args.workload]
        wl = cls(args.seed, scratch)
        warm = wl.warmup()
        if tracer:
            tracer.begin_experiment(0)
        out = warm.run()
        t_ready = time.perf_counter()
        setup_s = _AGE + (t_ready - _T0)
        warm.check(out)

        rounds_wanted = (max(1, math.ceil(args.seconds / cls.nominal_round_s))
                         if tracer else None)
        latencies, attempted, failed, busy = [], 0, 0, 0.0
        by_kind = {}
        correct, rounds = True, 0
        while True:
            for exp in wl.round(rounds):
                attempted += 1
                if tracer:
                    tracer.begin_experiment(attempted)
                t0 = time.perf_counter()
                try:
                    out = exp.run()
                except Exception:
                    failed += 1
                    _note(f"experiment {attempted} ({exp.kind}) failed:\n"
                          + traceback.format_exc(limit=3))
                    continue
                dt = time.perf_counter() - t0
                latencies.append(dt)
                by_kind.setdefault(exp.kind, []).append(dt)
                busy += dt
                try:
                    exp.check(out)
                except checks.CheckFailure as exc:
                    correct = False
                    _note(f"experiment {attempted} ({exp.kind}) {exp.params}: {exc}")
                except Exception:
                    correct = False
                    _note(f"experiment {attempted} ({exp.kind}) output unreadable:\n"
                          + traceback.format_exc(limit=3))
            rounds += 1
            if tracer and rounds >= rounds_wanted:
                break
            if not tracer and busy >= args.seconds:
                break
            if time.perf_counter() - _T0 > WALL_CAP_S:
                _note(f"stopping after {rounds} rounds: wall time cap {WALL_CAP_S} s")
                break

    if not latencies:
        _note("no experiment completed")
        return 1
    p50, p90 = _quantiles(latencies)
    rate = len(latencies) / busy
    _note(f"{args.workload} seed {args.seed}: {rounds} rounds, {attempted} experiments, "
          f"{failed} failed, busy {busy:.2f} s, {rate:.3f}/s, p50 {p50 * 1e3:.2f} ms, "
          f"p90 {p90 * 1e3:.2f} ms, setup {setup_s:.3f} s, traced {bool(tracer)}")
    for kind, lat in sorted(by_kind.items(), key=lambda kv: statistics.median(kv[1])):
        _note(f"  {kind:12s} n={len(lat):4d}  median {statistics.median(lat) * 1e3:9.2f} ms"
              f"  min {min(lat) * 1e3:9.2f} ms  max {max(lat) * 1e3:9.2f} ms")

    if tracer:
        tracer.uninstall()
        values = tracer.metrics()
        tracer.save(str(OUT / f"trace-{args.workload}.npz"))
        metrics = {name: {"value": values.get(name, 0),
                          "unit": "s" if name.endswith("_s") else "count"}
                   for name in PER_LAYER}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "experiments_per_s": {"value": rate, "unit": "1/s"},
            "latency_p50_s": {"value": p50, "unit": "s"},
            "latency_p90_s": {"value": p90, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
