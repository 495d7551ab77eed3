"""Generators, BSNR noise, metrics, and file-format round trips."""

import math

import numpy as np
import pytest

from tvbayes.errors import FileFormatError, NonFiniteError
from tvbayes.harness import (
    RunReport,
    add_noise_bsnr,
    make_image_2d,
    make_signal_1d,
    metrics,
    read_pgm,
    read_signal_csv,
    read_table_csv,
    shepp_logan_value,
    write_pgm,
    write_signal_csv,
    write_table_csv,
)
from tvbayes.operators import DiffOperator, LatticeSpec


class TestSignals:
    def test_blocky_plateaus(self):
        sig = make_signal_1d("blocky", 100)
        assert sig.shape == (100,)
        assert sig.min() >= 0.0 and sig.max() <= 1.0
        assert len(np.unique(sig)) >= 3  # at least 3 plateaus

    def test_blocky_difference_sparsity(self):
        for n in (64, 100, 250):
            sig = make_signal_1d("blocky", n)
            d = DiffOperator(LatticeSpec(1, n))
            jumps = np.count_nonzero(d.matvec(sig))
            assert jumps <= len(np.unique(sig)) + 1

    def test_blocky_smooth_has_curved_segment(self):
        sig = make_signal_1d("blocky_smooth", 200)
        t = np.arange(200) / 200
        inside = (t >= 0.5) & (t < 0.8)
        second = sig[2:] - 2 * sig[1:-1] + sig[:-2]
        assert np.all(np.abs(second[inside[1:-1]]) > 0)
        assert sig.min() >= 0.0 and sig.max() <= 1.0

    def test_deterministic(self):
        np.testing.assert_array_equal(make_signal_1d("blocky", 100),
                                      make_signal_1d("blocky", 100))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            make_signal_1d("blocky", 4)
        with pytest.raises(ValueError):
            make_signal_1d("triangle", 100)


class TestImages:
    def test_blocks42_piecewise_constant(self):
        img = make_image_2d("blocks42")
        assert img.shape == (42, 42)
        assert img.min() >= 0.0 and img.max() <= 1.0
        lat = LatticeSpec(42, 42)
        d = DiffOperator(lat)
        nonzero = np.count_nonzero(d.matvec(lat.to_stacked(img)))
        assert nonzero < 0.2 * d.n_rows  # differences are sparse

    def test_blocks42_scales(self):
        img = make_image_2d("blocks42", 84)
        assert img.shape == (84, 84)

    def test_shepp_logan_membership_oracle(self):
        img = make_image_2d("shepp_logan", 200)
        assert img.shape == (200, 200)
        coords = (2.0 * np.arange(200) + 1.0 - 200) / 200
        rng = np.random.default_rng(0)
        for _ in range(200):
            i, j = rng.integers(200), rng.integers(200)
            want = shepp_logan_value(coords[j], -coords[i])
            assert img[i, j] == pytest.approx(want, abs=1e-12)

    def test_shepp_logan_skull_interior_above_background(self):
        img = make_image_2d("shepp_logan", 200)
        # center of the phantom sits inside the two big ellipses
        assert img[100, 100] > 0.0
        # corners are background
        assert img[0, 0] == 0.0 and img[-1, -1] == 0.0
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_shepp_logan_skull_ring(self):
        # the band between the two outermost ellipses is the brightest
        # structure (value 1); it shows up on the vertical midline near y=0.9
        img = make_image_2d("shepp_logan", 200)
        assert img.max() == pytest.approx(1.0)
        column = img[:, 100]
        assert column[4] == 0.0          # above the skull: background
        assert np.any(column[5:15] == 1.0)  # skull ring
        assert column[100] == pytest.approx(0.2, abs=1e-12)  # interior

    def test_shepp_logan_centered_ellipses_mirror(self):
        # the x-centered ellipses rasterise symmetrically; probe rows that
        # only those ellipses touch (the tumor pair and bottom trio differ
        # in size, so the full phantom is not mirror symmetric)
        img = make_image_2d("shepp_logan", 200)
        rows = np.concatenate([np.arange(0, 55), np.arange(140, 150)])
        np.testing.assert_allclose(img[rows], img[rows][:, ::-1], atol=1e-12)


class TestBsnr:
    def test_definition_at_zero_db(self):
        rng = np.random.default_rng(1)
        sig = rng.normal(size=10_000)
        _, sigma = add_noise_bsnr(sig, 0.0, rng)
        assert sigma ** 2 == pytest.approx(np.var(sig), rel=1e-12)

    def test_infinite_bsnr_is_noiseless(self):
        rng = np.random.default_rng(2)
        sig = rng.normal(size=100)
        noisy, sigma = add_noise_bsnr(sig, 1000.0, rng)
        assert sigma == pytest.approx(0.0, abs=1e-40)
        np.testing.assert_allclose(noisy, sig, atol=1e-40)

    def test_achieves_target_within_half_db(self):
        rng = np.random.default_rng(3)
        sig = rng.normal(size=10_000)
        noisy, sigma = add_noise_bsnr(sig, 30.0, rng)
        measured = 10 * math.log10(np.var(sig) / np.var(noisy - sig))
        assert 29.5 <= measured <= 30.5

    def test_rejects_constant_input(self):
        with pytest.raises(ValueError):
            add_noise_bsnr(np.ones(50), 30.0, np.random.default_rng(0))

    @pytest.mark.parametrize("bsnr", [math.nan, -math.inf, 4000.0, -4000.0,
                                      -3100.0])
    def test_rejects_nan_and_minus_inf(self, bsnr):
        with pytest.raises(ValueError, match="BSNR"):
            add_noise_bsnr(np.arange(5.0), bsnr, np.random.default_rng(0))

    def test_plus_inf_is_noise_free(self):
        sig = np.arange(5.0)
        noisy, sigma = add_noise_bsnr(sig, math.inf, np.random.default_rng(0))
        assert sigma == 0.0
        np.testing.assert_array_equal(noisy, sig)


class TestMetrics:
    def test_exact_match(self):
        x = np.array([1.0, 2.0, 3.0])
        m = metrics(x, x)
        assert m["rel_l2"] == 0.0
        assert m["psnr"] == math.inf

    def test_unit_perturbation(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=50)
        x /= np.linalg.norm(x)
        pert = rng.normal(size=50)
        pert /= np.linalg.norm(pert)
        m = metrics(x + 0.1 * pert, x)
        assert m["rel_l2"] == pytest.approx(0.1, rel=1e-12)

    def test_independent_recomputation(self):
        rng = np.random.default_rng(5)
        x_hat, x = rng.normal(size=30), rng.normal(size=30)
        m = metrics(x_hat, x)
        assert m["rel_l2"] == pytest.approx(
            np.linalg.norm(x_hat - x) / np.linalg.norm(x), rel=1e-14)
        assert m["psnr"] == pytest.approx(
            10 * np.log10(x.max() ** 2 * 30 / np.sum((x_hat - x) ** 2)),
            rel=1e-14)

    @pytest.mark.parametrize("truth", [np.zeros(4),
                                       np.array([-1.0, 0.0, -2.0, -0.5])])
    def test_rejects_truth_without_peak(self, truth):
        with pytest.raises(ValueError, match="nonzero maximum"):
            metrics(np.ones(4), truth)


class TestPgm:
    def test_p5_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        img = rng.uniform(size=(7, 9))
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        # exact after 8-bit quantisation
        np.testing.assert_array_equal(np.rint(img * 255) / 255, back)
        write_pgm(path, back)
        np.testing.assert_array_equal(read_pgm(path), back)

    def test_p2_equals_p5(self, tmp_path):
        rng = np.random.default_rng(7)
        img = rng.uniform(size=(5, 4))
        write_pgm(tmp_path / "a.pgm", img)
        # the same quantised pixels as ASCII P2, which write_pgm never writes
        q = np.rint(img * 255).astype(int)
        (tmp_path / "b.pgm").write_text("P2\n4 5\n255\n" + "".join(
            " ".join(map(str, row)) + "\n" for row in q))
        np.testing.assert_array_equal(read_pgm(tmp_path / "a.pgm"),
                                      read_pgm(tmp_path / "b.pgm"))

    def test_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P2 # comment\n# another\n 2 2\n255\n0 128\n255 64\n")
        img = read_pgm(path)
        np.testing.assert_allclose(img, [[0, 128 / 255], [1.0, 64 / 255]])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(FileFormatError) as exc:
            read_pgm(path)
        assert exc.value.offset == 0

    def test_truncated_payload_offset(self, tmp_path):
        path = tmp_path / "trunc.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(FileFormatError) as exc:
            read_pgm(path)
        assert "truncated" in str(exc.value)
        assert exc.value.offset is not None

    def test_value_above_maxval(self, tmp_path):
        path = tmp_path / "over.pgm"
        path.write_bytes(b"P2\n2 1\n100\n50 101\n")
        with pytest.raises(FileFormatError):
            read_pgm(path)

    def test_p5_byte_above_maxval_offset(self, tmp_path):
        # header is 11 bytes; the raster's third byte (200 > 100) is at 13
        path = tmp_path / "over5.pgm"
        path.write_bytes(b"P5\n2 2\n100\n" + bytes([0, 100, 200, 7]))
        with pytest.raises(FileFormatError) as exc:
            read_pgm(path)
        assert "200 exceeds maxval 100" in str(exc.value)
        assert exc.value.offset == 13


# read_pgm on one table of inputs: each expects either the FileFormatError
# (message, byte offset) it raises or the raster as (integer rows, maxval)
_PGM_TABLE = {
    "empty": (b"", ("unexpected end of file, expected magic number", 0)),
    "bad_magic": (b"P6\n2 2\n255\n" + bytes(12),
                  ("not a PGM file (magic b'P6')", 0)),
    "width_missing": (b"P2\n", ("unexpected end of file, expected width", 3)),
    "height_missing": (b"P2\n2\n",
                       ("unexpected end of file, expected height", 5)),
    "maxval_missing": (b"P2 2 2", ("unexpected end of file, expected maxval",
                                   6)),
    "width_non_numeric": (b"P2\nx 2\n255\n", ("invalid width b'x'", 3)),
    "height_non_numeric": (b"P2\n2 2.0\n255\n", ("invalid height b'2.0'", 5)),
    "maxval_non_numeric": (b"P2\n2 2\nff\n", ("invalid maxval b'ff'", 7)),
    "width_zero": (b"P2\n0 2\n255\n", ("width 0 out of range 1..65535", 3)),
    "height_zero": (b"P2\n2 0\n255\n", ("height 0 out of range 1..65535", 5)),
    "maxval_zero": (b"P5\n2 2\n0\n", ("maxval 0 out of range 1..65535", 7)),
    "width_over": (b"P2\n65536 2\n255\n",
                   ("width 65536 out of range 1..65535", 3)),
    "height_over": (b"P2\n2 65536\n255\n",
                    ("height 65536 out of range 1..65535", 5)),
    "maxval_over": (b"P2\n2 2\n65536\n",
                    ("maxval 65536 out of range 1..65535", 7)),
    "p5_maxval_256": (b"P5\n1 1\n256\n\x00",
                      ("P5 maxval 256 > 255 not supported", 10)),
    "pixel_non_numeric": (b"P2\n2 1\n255\n7 x7\n",
                          ("invalid pixel value b'x7'", 13)),
    "pixel_negative": (b"P2\n2 1\n255\n7 -1\n",
                       ("pixel value -1 exceeds maxval 255", 13)),
    "pixel_missing": (b"P2\n2 2\n255\n1 2 3\n",
                      ("unexpected end of file, expected pixel value", 17)),
    "pixel_over": (b"P2\n2 1\n100\n50 101\n",
                   ("pixel value 101 exceeds maxval 100", 14)),
    "header_comments": (b"P2#a\n# b\n2 #c\n1 # d\n9\n1 2\n", ([[1, 2]], 9)),
    "mid_token_comment": (b"P2\n2#c\n2\n4\n0 1 2 3\n", ([[0, 1], [2, 3]], 4)),
    "raster_comment": (b"P2\n2 2\n4\n0 1 # 9 9\n2 3\n", ([[0, 1], [2, 3]], 4)),
    "cr": (b"P2\r2 1\r4\r1\r2\r", ([[1, 2]], 4)),
    "crlf": (b"P2\r\n2 1\r\n4\r\n1 2\r\n", ([[1, 2]], 4)),
    "tab": (b"P2\t2\t1\t4\t1\t2", ([[1, 2]], 4)),
    "vt": (b"P2\x0b2\x0b1\x0b4\x0b1\x0b2", ([[1, 2]], 4)),
    "ff": (b"P2\x0c2\x0c1\x0c4\x0c1\x0c2", ([[1, 2]], 4)),
    # not whitespace to bytes.isspace(), so part of a token
    "nbsp_not_space": (b"P2\xa02 1\n4\n1 2\n",
                       ("not a PGM file (magic b'P2\\xa02')", 0)),
    "fs_not_space": (b"P2\n2\x1c1\n4\n1 2\n", ("invalid width b'2\\x1c1'", 3)),
    "p5_short": (b"P5\n2 2\n255\n" + bytes([0, 1, 2]),
                 ("truncated P5 payload: need 4 bytes, have 3", 14)),
    "p5_long": (b"P5\n2 2\n255\n" + bytes([0, 1, 2, 3, 4]),
                ([[0, 1], [2, 3]], 255)),
    "p5_over": (b"P5\n2 2\n100\n" + bytes([0, 100, 200, 7]),
                ("pixel value 200 exceeds maxval 100", 13)),
    # one whitespace byte ends the header; the raster's own whitespace
    # bytes are pixels
    "p5_raster_of_whitespace": (b"P5\n2 2\n255\n" + bytes([10, 32, 9, 13]),
                                ([[10, 32], [9, 13]], 255)),
    "p5_ends_at_maxval": (b"P5\n2 2\n255",
                          ("truncated P5 payload: need 4 bytes, have 0", 10)),
    # a comment cannot stand for the one whitespace byte: its text is not
    # the raster's first pixels
    "p5_comment_after_maxval": (b"P5\n2 2\n255#c\n" + bytes([0, 1, 2, 3]),
                                ("no whitespace byte after P5 maxval", 10)),
}


@pytest.mark.parametrize("data, expected", _PGM_TABLE.values(),
                         ids=_PGM_TABLE.keys())
def test_read_pgm_table(tmp_path, data, expected):
    path = tmp_path / "t.pgm"
    path.write_bytes(data)
    if isinstance(expected[0], str):
        message, offset = expected
        with pytest.raises(FileFormatError) as exc:
            read_pgm(path)
        assert str(exc.value) == f"{message} (byte offset {offset})"
        assert exc.value.offset == offset
    else:
        rows, maxval = expected
        np.testing.assert_array_equal(read_pgm(path),
                                      np.array(rows, dtype=float) / maxval)


class TestWriters:
    def test_finite_input_bytes(self, tmp_path):
        img = np.array([[0.0, 0.5, 1.0], [-0.2, 0.25, 1.7]])
        write_pgm(tmp_path / "a.pgm", img)
        write_table_csv(tmp_path / "t.csv", ["i", "v"],
                        [(1, 0.1), (2, -2.5e-300)])
        assert (tmp_path / "a.pgm").read_bytes() == \
            b"P5\n3 2\n255\n\x00\x80\xff\x00@\xff"
        assert (tmp_path / "t.csv").read_bytes() == \
            b"i,v\r\n1,0.10000000000000001\r\n2,-2.5e-300\r\n"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_pgm_rejects_non_finite(self, tmp_path, bad):
        img = np.full((2, 2), 0.5)
        img[1, 0] = bad
        path = tmp_path / "x.pgm"
        with pytest.raises(NonFiniteError, match="img has non-finite") as exc:
            write_pgm(path, img)
        assert exc.value.where == "img"
        assert not path.exists()

    def test_csv_rejects_non_finite(self, tmp_path):
        # the rows read_table_csv would reject are never written
        path = tmp_path / "x.csv"
        for write in (lambda: write_signal_csv(path, [1.0, math.nan, math.inf]),
                      lambda: write_table_csv(path, ["a", "b"],
                                              [(1.0, 2.0), (3.0, -math.inf)])):
            with pytest.raises(NonFiniteError,
                               match="rows has non-finite") as exc:
                write()
            assert exc.value.where == "rows"
            assert not path.exists()


class TestCsv:
    def test_signal_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        sig = rng.normal(size=64) * 10.0 ** rng.integers(-8, 8, size=64)
        path = tmp_path / "sig.csv"
        write_signal_csv(path, sig)
        np.testing.assert_array_equal(read_signal_csv(path), sig)
        # a signal file is a one-column table, byte for byte
        table = tmp_path / "table.csv"
        write_table_csv(table, ["value"], sig[:, None])
        assert path.read_bytes() == table.read_bytes()

    def test_table_round_trip(self, tmp_path):
        rows = [(1.0, 2.5, -0.125), (4.0, 5.0, 6.0)]
        path = tmp_path / "t.csv"
        write_table_csv(path, ["a", "b", "c"], rows)
        header, body = read_table_csv(path)
        assert header == ["a", "b", "c"]
        np.testing.assert_array_equal(body, np.asarray(rows))

    def test_malformed_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("value\nnot_a_number\n")
        with pytest.raises(FileFormatError):
            read_signal_csv(path)
        # ragged rows: a signal is a table's first column, and a table's
        # rows each have one value per header name
        for text in ("value\n1.0\n2.0,3.0\n", "a,b\n1.0,2.0\n3.0\n"):
            path.write_text(text)
            for reader in (read_signal_csv, read_table_csv):
                with pytest.raises(FileFormatError, match="data row 2"):
                    reader(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_csv_value(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"value\n1.0\n{value}\n2.0\n")
        with pytest.raises(FileFormatError, match="row 2"):
            read_signal_csv(path)
        # the table reader holds the check, in any column
        path.write_text(f"a,b\n1.0,2.0\n3.0,{value}\n")
        for reader in (read_signal_csv, read_table_csv):
            with pytest.raises(FileFormatError, match="data row 2"):
                reader(path)


class TestRunReport:
    def test_json_round_trip(self, tmp_path):
        rep = RunReport(estimator="ias", config={"tol": 1e-6}, iterations=12,
                        converged=True, nu=3.5, lam=120.0, seed=7,
                        metrics={"rel_l2": 0.1, "psnr": 30.0},
                        wall_time_s=0.5, outputs={"estimate": "x.csv"})
        path = tmp_path / "report.json"
        rep.to_json(path)
        back = RunReport.from_json(path)
        assert back == rep

    def test_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text('{"schema_version": 99}')
        with pytest.raises(FileFormatError):
            RunReport.from_json(path)
