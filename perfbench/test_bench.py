"""Tests of the benchmark's own bookkeeping: failure accounting, the span
hooks and the refusal to run without the sources.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import os
import shutil
import subprocess
import sys

import numpy as np

import bench
import tvbayes.estimators as est
import tvbayes.solvers as solvers

HERE = os.path.dirname(os.path.abspath(__file__))


def test_pcg_error_counts_as_failed_solve():
    # Known defect: default ias_run on the 96x96 phantom hits the 1000
    # iteration CG cap in its 6th sweep and raises PcgError.
    w = dataclasses.replace(bench.WORKLOADS["ias_shepp200"], size=96)
    run = bench.end_to_end(w, w.default_seed, seconds=0.0)
    (only,) = run["attempts"]
    assert only.error.startswith("PcgError")
    assert bench.failed(only)
    assert "solve_s" not in run["metrics"]
    assert run["metrics"]["setup_s"][0] > 0


def test_loop_goes_on_after_typed_errors():
    # VB refuses a 96x96 problem at once (CapacityError), so many attempts
    # fit in the budget; every one must be counted, none may escape.
    w = dataclasses.replace(bench.WORKLOADS["vb_blocks32"], size=96)
    p = bench.set_up(w, w.default_seed)
    attempts = [r[0] for r in bench.closed_loop(w, p, w.default_seed,
                                                seconds=0.2)]
    assert len(attempts) > 1
    assert all(a.error.startswith("CapacityError") for a in attempts)


def test_failed_check_counts_as_failed_solve():
    w = bench.WORKLOADS["gibbs_blocky32"]
    p = bench.set_up(w, w.default_seed)
    # the noisy input itself, unconverged: cannot beat its own PSNR
    fake = bench.Estimate(p.y, 1.0, 1.0, 0, False, None)
    q = bench.quality(w, fake, p)
    assert any("not converged" in c for c in q["failed_checks"])
    assert any("PSNR" in c for c in q["failed_checks"])
    assert bench.failed(bench.Attempt(0.0, 1.0, q, None))


def test_traced_run_hooks_the_names_the_engines_call():
    # criterion 7's 1-D IAS problem: small, but it runs CG every sweep
    w = bench.Workload("ias_blocky100", "ias", "blocky", 100, False, 7, 1.75,
                       30.0, 7, "solvers.pcg_solve")
    rfft2 = np.fft.rfft2
    run = bench.traced(w, w.default_seed, 0.0, HERE)
    assert run["problems"] == []
    m = {k: v for k, (v, _) in run["metrics"].items()}
    assert m["solvers.cg_iterations"] > 0
    assert m["operators.precond_apply.calls"] == m["solvers.cg_iterations"]
    assert m["operators.weighted_gram_matvec.calls"] == \
        m["solvers.cg_iterations"] + m["solvers.pcg_solve.calls"]
    traced_q = run["attempts"][0].quality
    assert m["estimators.sweeps"] == traced_q["sweeps"]
    assert m["trace.overhead_s"] > 0
    # the hooks time the arithmetic, they do not change it
    plain, _ = bench.attempt(w, bench.set_up(w, w.default_seed), w.default_seed)
    assert bench.repeat_problems([plain, run["attempts"][0]]) == []
    # every hook is undone
    assert est.pcg_solve is solvers.pcg_solve
    assert np.fft.rfft2 is rfft2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "vb_blocks32",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
