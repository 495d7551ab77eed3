"""Benchmark entry point.

    python3 perfbench/run.py --workload ias_shepp200 [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the repository root. It imports ``tvbayes`` straight from
``src/`` (nothing to build), pins the BLAS pool to one thread before numpy
loads, runs one workload and prints one line per metric, the run
environment, and last a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics
of untraced solves; ``--trace 1`` the per-layer metrics of a traced solve.
See NOTES.md in this directory for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# One BLAS thread: on a 2-core box VB solves took 3.09-3.53 s with one
# thread and 2.95-3.81 s with two, so one thread is the steadier setting.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=None,
                        help="noise seed (default: the acceptance-suite seed)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="closed-loop time budget; at least one solve")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "tvbayes", "__init__.py")):
        print(f"error: no tvbayes sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [SRC, HERE]
    import bench  # after the BLAS pin: numpy reads it when it loads

    args = parse_args(argv, bench.WORKLOADS)
    w = bench.WORKLOADS[args.workload]
    seed = w.default_seed if args.seed is None else args.seed
    if args.trace:
        run = bench.traced(w, seed, args.seconds, ROOT)
    else:
        run = bench.end_to_end(w, seed, args.seconds)

    attempts = run["attempts"]
    n_failed = sum(bench.failed(a) for a in attempts)
    for a in attempts:
        if a.error:
            print(f"failed solve: {a.error}")
        elif a.quality["failed_checks"]:
            print(f"failed checks: {'; '.join(a.quality['failed_checks'])}")
    for problem in run["problems"]:
        print(f"check: {problem}")
    print(f"workload {w.name} seed {seed} trace {args.trace}: "
          f"{len(attempts)} solves, fail_rate {n_failed / len(attempts):.3f}")
    print("solve times: " + " ".join(f"{a.solve_s:.4f}" for a in attempts))
    if "quality" in run:
        q = run["quality"]
        gap = "n/a" if q["mode_gap"] is None else f"{q['mode_gap']:.3e}"
        print(f"sweeps {q['sweeps']}  mode_gap {gap}  "
              f"noisy_psnr_db {q['noisy_psnr_db']:.3f}")
    for name, v in run.get("spans", {}).items():
        print(f"span {name}: {v['calls']} calls, {v['s']:.6g} s, "
              f"self {v['self_s']:.6g} s")
    for name, (value, unit) in run["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    print("env " + json.dumps(environment(), sort_keys=True))
    correct = n_failed == 0 and not run["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": len(attempts),
        "failed": n_failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
