"""End-to-end command-line tests on temporary directories."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import tvbayes.cli as cli
from tvbayes import errors
from tvbayes.cli import main
from tvbayes.harness import (
    RunReport,
    read_pgm,
    read_signal_csv,
    read_table_csv,
    write_signal_csv,
)


def run(*argv):
    return main(list(argv))


# the README with its line breaks folded to single spaces
README = " ".join(
    (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8").split())


class TestSimulate:
    def test_blocky_writes_csv_and_sidecar(self, tmp_path):
        prefix = str(tmp_path / "run")
        code = run("simulate", "--kind", "blocky", "--size", "100",
                   "--bsnr", "30", "--out-prefix", prefix)
        assert code == 0
        truth = read_signal_csv(prefix + "_truth.csv")
        blurred = read_signal_csv(prefix + "_blurred.csv")
        noisy = read_signal_csv(prefix + "_noisy.csv")
        assert truth.shape == blurred.shape == noisy.shape == (100,)
        side = json.loads((tmp_path / "run_sim.json").read_text())
        assert side["kernel_size"] == 7
        assert side["noise_sigma"] > 0
        measured = 10 * math.log10(np.var(blurred) / np.var(noisy - blurred))
        assert 29.0 <= measured <= 31.0

    def test_identity_kernel_blurred_equals_truth(self, tmp_path):
        prefix = str(tmp_path / "idk")
        assert run("simulate", "--kind", "blocky", "--size", "64",
                   "--kernel-size", "1", "--out-prefix", prefix) == 0
        truth = read_signal_csv(prefix + "_truth.csv")
        blurred = read_signal_csv(prefix + "_blurred.csv")
        np.testing.assert_allclose(blurred, truth, atol=1e-12)

    def test_shepp_logan_pgm(self, tmp_path):
        prefix = str(tmp_path / "sl")
        assert run("simulate", "--kind", "shepp_logan", "--size", "200",
                   "--kernel-size", "7", "--out-prefix", prefix) == 0
        img = read_pgm(prefix + "_noisy.pgm")
        assert img.shape == (200, 200)

    def test_deterministic_for_seed(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for prefix in (a, b):
            run("simulate", "--kind", "blocky", "--size", "50", "--seed", "9",
                "--out-prefix", prefix)
        np.testing.assert_array_equal(read_signal_csv(a + "_noisy.csv"),
                                      read_signal_csv(b + "_noisy.csv"))

    def test_bad_kind_exit_code(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("simulate", "--kind", "nope", "--out-prefix",
                str(tmp_path / "x"))
        assert exc.value.code == 2

    @pytest.mark.parametrize("bsnr", ["nan", "-inf", "4000", "-4000",
                                      "-3100"])
    def test_bad_bsnr_exit_code(self, tmp_path, bsnr):
        code = run("simulate", "--kind", "blocky", "--size", "32",
                   f"--bsnr={bsnr}", "--out-prefix", str(tmp_path / "x"))
        assert code == 2
        assert list(tmp_path.iterdir()) == []

    def test_noise_free_sidecar_is_strict_json(self, tmp_path):
        def no_constant(name):
            raise ValueError(f"{name} is not JSON")
        prefix = str(tmp_path / "nf")
        assert run("simulate", "--kind", "blocky", "--size", "32",
                   "--bsnr", "inf", "--out-prefix", prefix) == 0
        side = json.loads((tmp_path / "nf_sim.json").read_text(),
                          parse_constant=no_constant)
        assert side["bsnr_db"] is None
        assert side["noise_sigma"] == 0.0


class TestDeblur:
    @pytest.fixture()
    def problem(self, tmp_path):
        prefix = str(tmp_path / "sim")
        run("simulate", "--kind", "blocky", "--size", "64", "--bsnr", "30",
            "--kernel-size", "5", "--seed", "4", "--out-prefix", prefix)
        return prefix

    def test_ias_outputs(self, problem, tmp_path):
        out = str(tmp_path / "ias")
        code = run("deblur", "--input", problem + "_noisy.csv",
                   "--method", "ias", "--sidecar", problem + "_sim.json",
                   "--truth", problem + "_truth.csv", "--out-prefix", out)
        assert code == 0
        report = RunReport.from_json(out + "_report.json")
        assert report.estimator == "ias"
        assert report.converged and report.iterations <= 200
        assert report.metrics["rel_l2"] < 0.2
        header, trace = read_table_csv(out + "_trace.csv")
        assert header[0] == "iteration"
        assert trace.shape[0] == report.iterations
        estimate = read_signal_csv(out + "_estimate.csv")
        assert estimate.shape == (64,)

    def test_metrics_absent_without_truth(self, problem, tmp_path):
        out = str(tmp_path / "nm")
        run("deblur", "--input", problem + "_noisy.csv", "--method",
            "tikhonov", "--delta", "0.01", "--sidecar", problem + "_sim.json",
            "--out-prefix", out)
        report = RunReport.from_json(out + "_report.json")
        assert report.metrics is None

    def test_vb_outputs(self, problem, tmp_path):
        out = str(tmp_path / "vb")
        code = run("deblur", "--input", problem + "_noisy.csv",
                   "--method", "vb", "--sidecar", problem + "_sim.json",
                   "--out-prefix", out)
        assert code == 0
        std = read_signal_csv(out + "_std.csv")
        assert std.shape == (64,) and np.all(std > 0)
        report = RunReport.from_json(out + "_report.json")
        assert report.outputs["param_nu_shape"] == 32.0

    def test_gibbs_outputs(self, problem, tmp_path):
        out = str(tmp_path / "gb")
        code = run("deblur", "--input", problem + "_noisy.csv",
                   "--method", "gibbs", "--samples", "200", "--seed", "3",
                   "--sidecar", problem + "_sim.json", "--out-prefix", out)
        assert code == 0
        nu_trace = read_signal_csv(out + "_nu_trace.csv")
        lam_trace = read_signal_csv(out + "_lambda_trace.csv")
        assert nu_trace.shape == lam_trace.shape == (240,)  # 20% burn-in
        report = RunReport.from_json(out + "_report.json")
        assert report.converged is None  # Gibbs runs no convergence test

    def test_config_holds_every_flag_and_the_resolved_kernel(self, problem,
                                                             tmp_path):
        out = str(tmp_path / "cf")
        # the sidecar (5-point mask, sigma 1.25) overrides the kernel flags
        assert run("deblur", "--input", problem + "_noisy.csv",
                   "--method", "tikhonov", "--kernel-size", "3",
                   "--sigma", "0.5", "--sidecar", problem + "_sim.json",
                   "--truth", problem + "_truth.csv", "--out-prefix", out) == 0
        config = RunReport.from_json(out + "_report.json").config
        assert sorted(config) == [
            "alpha_lambda", "alpha_nu", "beta_lambda", "beta_nu", "burn_in",
            "delta", "dof", "gig_a", "gig_b", "gig_p", "input",
            "kernel_sigma", "kernel_size", "maxit", "method", "prior",
            "safeguard_b", "samples", "seed", "thinning", "tol"]
        assert (config["kernel_size"], config["kernel_sigma"]) == (5, 1.25)
        assert config["input"] == problem + "_noisy.csv"
        assert config["method"] == "tikhonov" and config["burn_in"] is None

    @pytest.mark.parametrize("method,headers", [
        (["ias"], {"_trace.csv": ["iteration", "log_posterior",
                                  "rel_x_change", "nu", "lambda"]}),
        (["vb"], {"_trace.csv": ["iteration", "rel_x_change", "nu_mean",
                                 "lambda_mean"],
                  "_std.csv": ["posterior_std"]}),
        (["gibbs", "--samples", "20"], {"_nu_trace.csv": ["nu_trace"],
                                        "_lambda_trace.csv": ["lambda_trace"]}),
        (["tikhonov"], {}),
    ], ids=["ias", "vb", "gibbs", "tikhonov"])
    def test_csv_headers_match_readme(self, problem, tmp_path, method,
                                      headers):
        headers = {**headers, "_estimate.csv": ["value"]}
        out = str(tmp_path / "hd")
        assert run("deblur", "--input", problem + "_noisy.csv", "--method",
                   *method, "--sidecar", problem + "_sim.json",
                   "--out-prefix", out) == 0
        written = sorted(p.name[len("hd"):] for p in tmp_path.glob("hd_*.csv"))
        assert written == sorted(headers)
        for suffix, want in headers.items():
            header, _ = read_table_csv(out + suffix)
            assert header == want
            assert f"`{', '.join(want)}`" in README, suffix

    def test_gibbs_deterministic(self, problem, tmp_path):
        outs = []
        for tag in ("g1", "g2"):
            out = str(tmp_path / tag)
            run("deblur", "--input", problem + "_noisy.csv", "--method",
                "gibbs", "--samples", "100", "--seed", "8",
                "--sidecar", problem + "_sim.json", "--out-prefix", out)
            outs.append(read_signal_csv(out + "_estimate.csv"))
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_2d_roundtrip(self, tmp_path):
        prefix = str(tmp_path / "im")
        run("simulate", "--kind", "blocks42", "--bsnr", "40",
            "--seed", "2", "--out-prefix", prefix)
        out = str(tmp_path / "im_ias")
        code = run("deblur", "--input", prefix + "_noisy.pgm",
                   "--method", "ias", "--sidecar", prefix + "_sim.json",
                   "--truth", prefix + "_truth.pgm", "--out-prefix", out)
        assert code == 0
        est = read_pgm(out + "_estimate.pgm")
        assert est.shape == (42, 42)
        report = RunReport.from_json(out + "_report.json")
        assert report.metrics["psnr"] > 20

    def test_vb_capacity_exit_code(self, tmp_path):
        prefix = str(tmp_path / "big")
        run("simulate", "--kind", "shepp_logan", "--size", "200",
            "--out-prefix", prefix)
        out = str(tmp_path / "bigvb")
        code = run("deblur", "--input", prefix + "_noisy.pgm",
                   "--method", "vb", "--sidecar", prefix + "_sim.json",
                   "--out-prefix", out)
        assert code == 4

    def test_negative_burn_in_exit_code(self, problem, tmp_path):
        code = run("deblur", "--input", problem + "_noisy.csv",
                   "--method", "gibbs", "--samples", "10", "--burn-in", "-5",
                   "--sidecar", problem + "_sim.json",
                   "--out-prefix", str(tmp_path / "nb"))
        assert code == 2

    @pytest.mark.parametrize("truth", [np.zeros(64), np.zeros(63),
                                       -np.arange(64.0)])
    def test_bad_truth_exits_before_the_solve(self, problem, tmp_path,
                                              monkeypatch, truth):
        def no_solve(*args, **kwargs):
            raise AssertionError("the solve ran")
        monkeypatch.setattr(cli, "ias_run", no_solve)
        path = str(tmp_path / "bad_truth.csv")
        write_signal_csv(path, truth)
        code = run("deblur", "--input", problem + "_noisy.csv",
                   "--method", "ias", "--sidecar", problem + "_sim.json",
                   "--truth", path, "--out-prefix", str(tmp_path / "bt"))
        assert code == 2

    @pytest.mark.parametrize("method", ["tikhonov", "ias", "vb"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_input_exit_code(self, problem, tmp_path, method,
                                        value):
        y = read_signal_csv(problem + "_noisy.csv")
        y[10] = value
        path = str(tmp_path / "bad_input.csv")
        write_signal_csv(path, y)
        code = run("deblur", "--input", path, "--method", method,
                   "--sidecar", problem + "_sim.json",
                   "--out-prefix", str(tmp_path / "bi"))
        assert code == 2
        assert not (tmp_path / "bi_report.json").exists()

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_truth_exit_code(self, problem, tmp_path, value):
        truth = read_signal_csv(problem + "_truth.csv")
        truth[3] = value
        path = str(tmp_path / "bad_truth.csv")
        write_signal_csv(path, truth)
        code = run("deblur", "--input", problem + "_noisy.csv",
                   "--method", "tikhonov", "--sidecar", problem + "_sim.json",
                   "--truth", path, "--out-prefix", str(tmp_path / "bt"))
        assert code == 2
        assert not (tmp_path / "bt_report.json").exists()

    @pytest.mark.parametrize("key,value", [
        ("kernel_sigma", None), ("kernel_sigma", "1.25"),
        ("kernel_sigma", True), ("kernel_size", 7.9), ("kernel_size", 5.0),
        ("kernel_size", "5"), ("kernel_size", True), ("kernel_size", None),
    ])
    def test_malformed_sidecar_exit_code(self, problem, tmp_path, key, value):
        side = json.loads(open(problem + "_sim.json").read())
        side[key] = value
        path = tmp_path / "bad_sim.json"
        path.write_text(json.dumps(side))
        code = run("deblur", "--input", problem + "_noisy.csv",
                   "--method", "tikhonov", "--sidecar", str(path),
                   "--out-prefix", str(tmp_path / "bs"))
        assert code == 2

    @pytest.mark.parametrize("text", ["[1, 2]", "7", '"sidecar"', "null"])
    def test_sidecar_not_an_object_exit_code(self, problem, tmp_path, text):
        path = tmp_path / "bad_sim.json"
        path.write_text(text)
        code = run("deblur", "--input", problem + "_noisy.csv",
                   "--method", "tikhonov", "--sidecar", str(path),
                   "--out-prefix", str(tmp_path / "bs"))
        assert code == 2

    def test_p5_byte_above_maxval_exit_code(self, tmp_path):
        path = tmp_path / "over.pgm"
        path.write_bytes(b"P5\n4 4\n100\n" + bytes([50] * 15 + [200]))
        code = run("deblur", "--input", str(path), "--method", "ias",
                   "--out-prefix", str(tmp_path / "ov"))
        assert code == 2
        assert not (tmp_path / "ov_report.json").exists()

    @pytest.mark.parametrize("flags", [
        ["--method", "ias", "--tol", "inf"],
        ["--method", "vb", "--tol", "inf"],
        ["--method", "tikhonov", "--delta", "inf"],
        ["--method", "tikhonov", "--kernel-size", "5", "--sigma", "inf"],
        ["--method", "tikhonov", "--kernel-size", "5", "--sigma", "1e200"],
        ["--method", "ias", "--prior", "student", "--dof", "0"],
    ], ids=["ias-tol", "vb-tol", "tikhonov-delta", "kernel-sigma",
            "kernel-sigma-square", "dof"])
    def test_out_of_range_option_exit_code(self, problem, tmp_path, flags):
        code = run("deblur", "--input", problem + "_noisy.csv", *flags,
                   "--out-prefix", str(tmp_path / "no"))
        assert code == 2
        assert not (tmp_path / "no_report.json").exists()

    def test_missing_input_exit_code(self, tmp_path):
        code = run("deblur", "--input", str(tmp_path / "nothing.csv"),
                   "--method", "ias", "--out-prefix", str(tmp_path / "o"))
        assert code == 2

    def test_divergence_exit_code(self, tmp_path):
        # near-constant data drives the penalty strength over the guard
        from tvbayes.harness import write_signal_csv
        rng = np.random.default_rng(0)
        path = str(tmp_path / "flat.csv")
        write_signal_csv(path, 1.0 + 1e-9 * rng.standard_normal(64))
        code = run("deblur", "--input", path, "--method", "ias",
                   "--out-prefix", str(tmp_path / "fl"))
        assert code == 5

    @pytest.mark.parametrize("method", [
        ["ias"], ["gibbs", "--samples", "200", "--seed", "5"]])
    def test_image_divergence_exit_code(self, tmp_path, method):
        # a 16x16 image problem whose posterior collapses to a blank image:
        # both engines stop at the lambda guard
        prefix = str(tmp_path / "c16")
        assert run("simulate", "--kind", "blocks42", "--size", "16",
                   "--kernel-size", "5", "--sigma", "1.25", "--bsnr", "40",
                   "--seed", "10", "--out-prefix", prefix) == 0
        code = run("deblur", "--input", prefix + "_noisy.pgm", "--sidecar",
                   prefix + "_sim.json", "--method", *method,
                   "--out-prefix", str(tmp_path / "out"))
        assert code == 5

    def test_student_prior_flag(self, problem, tmp_path):
        out = str(tmp_path / "st")
        code = run("deblur", "--input", problem + "_noisy.csv",
                   "--method", "ias", "--prior", "student", "--dof", "2",
                   "--sidecar", problem + "_sim.json", "--out-prefix", out)
        assert code == 0

    def test_out_dir_env_var(self, problem, tmp_path, monkeypatch):
        outdir = tmp_path / "artifacts"
        monkeypatch.setenv("TVBAYES_OUT_DIR", str(outdir))
        code = run("deblur", "--input", problem + "_noisy.csv",
                   "--method", "tikhonov", "--delta", "0.01",
                   "--sidecar", problem + "_sim.json", "--out-prefix", "rel/x")
        assert code == 0
        assert (outdir / "rel" / "x_estimate.csv").exists()
        assert (outdir / "rel" / "x_report.json").exists()


class TestDist:
    def test_exp_moment(self, capsys):
        assert run("dist", "--op", "moment", "--a", "2", "--b", "0",
                   "--p", "1", "--q", "1") == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0)

    def test_exp_mode(self, capsys):
        assert run("dist", "--op", "mode", "--a", "2", "--b", "0",
                   "--p", "1") == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_pdf_value(self, capsys):
        assert run("dist", "--op", "pdf", "--a", "2", "--b", "0", "--p", "1",
                   "--x", "0.7") == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(
            math.exp(-0.7))

    def test_sample_file_mean(self, tmp_path, capsys):
        out = str(tmp_path / "draws.csv")
        assert run("dist", "--op", "sample", "--a", "1", "--b", "1",
                   "--p", "0.5", "--n", "100000", "--seed", "5",
                   "--out", out) == 0
        draws = read_signal_csv(out)
        from tvbayes.distributions import GigParams, gig_moment
        want = gig_moment(GigParams(1, 1, 0.5), 1)
        assert draws.mean() == pytest.approx(want, rel=0.01)

    def test_inadmissible_params_exit_code(self):
        assert run("dist", "--op", "mode", "--a", "0", "--b", "0",
                   "--p", "1") == 2


@pytest.mark.parametrize("exc,code", [
    (errors.RankConditionError("rank"), 3),
    (errors.CapacityError("capacity"), 4),
    (errors.DivergenceError("diverged", mode="blank_image", iteration=1), 5),
    (errors.PcgError("cg"), 6),
    (errors.NotSpdError("spd"), 6),
    (errors.NonFiniteError("nan", where="x"), 6),
    (errors.DegenerateConditionalError("degenerate"), 7),
    (errors.FileFormatError("format"), 2),
    (errors.GigParameterError("gig"), 2),
    (errors.MomentDivergesError("moment"), 2),
    (ValueError("value"), 2),
    (OSError("os"), 2),
    (json.JSONDecodeError("json", "doc", 0), 2),
    (KeyError("key"), 2),
])
def test_exit_code_table(monkeypatch, capsys, exc, code):
    def fail(args):
        raise exc
    monkeypatch.setitem(cli._HANDLERS, "dist", fail)
    assert run("dist", "--op", "mode", "--a", "1", "--b", "1",
               "--p", "1") == code
    assert capsys.readouterr().err.startswith("error: ")
