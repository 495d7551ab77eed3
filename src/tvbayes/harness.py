"""Test-problem generation, noise injection, quality metrics and file I/O.

Everything here is deterministic given its arguments (noise takes an
explicit generator). Interchange formats: 8-bit PGM (P2/P5) for images,
CSV for signals and traces, JSON for run reports. Internal computation is
floating point; quantisation happens only at the PGM boundary.

PGM rasters are row major (top row first) and map to the k x n arrays that
``LatticeSpec.to_grid``/``to_stacked`` convert to and from the column-wise
stacked vectors the operators use.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import FileFormatError

__all__ = [
    "make_signal_1d",
    "make_image_2d",
    "add_noise_bsnr",
    "metrics",
    "RunReport",
    "write_pgm",
    "read_pgm",
    "write_signal_csv",
    "read_signal_csv",
    "write_table_csv",
    "read_table_csv",
]


# ---------------------------------------------------------------------------
# Committed test patterns
# ---------------------------------------------------------------------------

# (end of segment as a fraction of the domain, level) pairs; the last end is 1
_BLOCKY_SEGMENTS = [
    (0.12, 0.15), (0.30, 0.85), (0.45, 0.35), (0.62, 1.00), (0.80, 0.00),
    (1.00, 0.55),
]

# blocky head, a parabolic bump (smooth part), then a final plateau
_BLOCKY_SMOOTH_SEGMENTS = [(0.10, 0.10), (0.26, 0.80), (0.40, 0.30),
                           (0.44, 0.00)]
_BUMP = (0.44, 0.86, 0.65, 0.21, 0.95)  # start, end, center, half-width, peak
_TAIL_LEVEL = 0.45

# blocks in 42 x 42 reference coordinates: (row0, row1, col0, col1, level)
_BLOCKS42 = [
    (6, 20, 6, 18, 0.9),
    (22, 36, 14, 30, 0.5),
    (8, 16, 26, 38, 1.0),
    (28, 38, 4, 10, 0.7),
    (24, 30, 32, 38, 0.0),
]
_BLOCKS42_BACKGROUND = 0.1

# Shepp-Logan phantom, ten ellipses with the standard contrast-adjusted
# intensities: (additive value, semi-axis a, semi-axis b, x0, y0, angle deg)
SHEPP_LOGAN_ELLIPSES = [
    (1.00, 0.6900, 0.9200, 0.00, 0.0000, 0.0),
    (-0.80, 0.6624, 0.8740, 0.00, -0.0184, 0.0),
    (-0.20, 0.1100, 0.3100, 0.22, 0.0000, -18.0),
    (-0.20, 0.1600, 0.4100, -0.22, 0.0000, 18.0),
    (0.10, 0.2100, 0.2500, 0.00, 0.3500, 0.0),
    (0.10, 0.0460, 0.0460, 0.00, 0.1000, 0.0),
    (0.10, 0.0460, 0.0460, 0.00, -0.1000, 0.0),
    (0.10, 0.0460, 0.0230, -0.08, -0.6050, 0.0),
    (0.10, 0.0230, 0.0230, 0.00, -0.6050, 0.0),
    (0.10, 0.0230, 0.0460, 0.06, -0.6050, 0.0),
]


def make_signal_1d(kind: str, points: int) -> np.ndarray:
    """Deterministic 1-D test signal on [0, 1).

    ``blocky`` is piecewise constant with six plateaus; ``blocky_smooth``
    swaps part of it for a parabolic bump whose second difference is
    nonzero everywhere on the bump.
    """
    if points < 8:
        raise ValueError(f"need at least 8 points, got {points}")
    t = np.arange(points) / points
    if kind == "blocky":
        out = np.empty(points)
        start = 0.0
        for end, level in _BLOCKY_SEGMENTS:
            out[(t >= start) & (t < end)] = level
            start = end
        return out
    if kind == "blocky_smooth":
        out = np.full(points, _TAIL_LEVEL)
        start = 0.0
        for end, level in _BLOCKY_SMOOTH_SEGMENTS:
            out[(t >= start) & (t < end)] = level
            start = end
        b0, b1, c, hw, peak = _BUMP
        bump = (t >= b0) & (t < b1)
        out[bump] = np.maximum(peak * (1.0 - ((t[bump] - c) / hw) ** 2), 0.0)
        return out
    raise ValueError(f"unknown 1-D signal kind {kind!r}")


def shepp_logan_value(x: float, y: float) -> float:
    """Analytic phantom value at a point of [-1, 1]^2 (membership oracle)."""
    total = 0.0
    for val, a, b, x0, y0, deg in SHEPP_LOGAN_ELLIPSES:
        phi = math.radians(deg)
        xr = (x - x0) * math.cos(phi) + (y - y0) * math.sin(phi)
        yr = -(x - x0) * math.sin(phi) + (y - y0) * math.cos(phi)
        if (xr / a) ** 2 + (yr / b) ** 2 <= 1.0:
            total += val
    return min(max(total, 0.0), 1.0)


def make_image_2d(kind: str, size: int | None = None) -> np.ndarray:
    """Deterministic 2-D test image as a k x k array, values in [0, 1].

    ``blocks42`` (default 42) is the committed piecewise-constant pattern;
    ``shepp_logan`` (default 200) rasterises the standard ten-ellipse
    phantom at pixel centers.
    """
    if kind == "blocks42":
        size = 42 if size is None else size
        if size < 8:
            raise ValueError("blocks42 needs size >= 8")
        img = np.full((size, size), _BLOCKS42_BACKGROUND)
        s = size / 42.0
        for r0, r1, c0, c1, level in _BLOCKS42:
            img[round(r0 * s):round(r1 * s), round(c0 * s):round(c1 * s)] = level
        return img
    if kind == "shepp_logan":
        size = 200 if size is None else size
        if size < 8:
            raise ValueError("shepp_logan needs size >= 8")
        # pixel centers, exactly antisymmetric so mirror-pair ellipses
        # rasterise symmetrically; row 0 is the top of the phantom (y = +1)
        coords = (2.0 * np.arange(size) + 1.0 - size) / size
        xs = coords
        ys = -coords
        img = np.zeros((size, size))
        for val, a, b, x0, y0, deg in SHEPP_LOGAN_ELLIPSES:
            phi = math.radians(deg)
            xr = ((xs[None, :] - x0) * math.cos(phi)
                  + (ys[:, None] - y0) * math.sin(phi))
            yr = (-(xs[None, :] - x0) * math.sin(phi)
                  + (ys[:, None] - y0) * math.cos(phi))
            img[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += val
        return np.clip(img, 0.0, 1.0)
    raise ValueError(f"unknown 2-D image kind {kind!r}")


# ---------------------------------------------------------------------------
# Noise and metrics
# ---------------------------------------------------------------------------

def add_noise_bsnr(blurred: np.ndarray, bsnr_db: float,
                   rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Add white Gaussian noise at the target blurred signal-to-noise ratio.

    BSNR(dB) = 10 log10(var(blurred) / sigma^2) with the sample variance of
    the blurred signal; returns the noisy signal and the sigma used. A BSNR
    of +inf means noise-free data (sigma = 0); NaN, -inf and a finite BSNR
    whose sigma leaves the float range (|BSNR| > ~3000 dB) raise ValueError.
    """
    blurred = np.asarray(blurred, dtype=float)
    var = float(np.var(blurred))
    if var == 0.0:
        raise ValueError("blurred signal is constant; BSNR is undefined")
    try:
        sigma = math.sqrt(var / 10.0 ** (bsnr_db / 10.0))
    except (OverflowError, ZeroDivisionError):  # 10^(BSNR/10) out of range
        sigma = math.nan
    if not (0.0 < sigma < math.inf or bsnr_db == math.inf):
        raise ValueError(f"BSNR must be +inf or a number whose noise sigma "
                         f"is positive and finite, got {bsnr_db} dB")
    return blurred + sigma * rng.standard_normal(blurred.shape), sigma


def metrics(x_hat: np.ndarray, x_true: np.ndarray) -> dict:
    """Relative L2 error and PSNR (peak = max of the ground truth)."""
    x_hat = np.asarray(x_hat, dtype=float)
    x_true = np.asarray(x_true, dtype=float)
    if x_hat.shape != x_true.shape:
        raise ValueError("estimate and truth must have the same shape")
    peak = float(np.max(x_true))
    if peak == 0.0:  # covers an all-zero truth (zero norm) too
        raise ValueError("truth must have a nonzero maximum (the PSNR peak)")
    err2 = float(np.sum((x_hat - x_true) ** 2))
    rel = math.sqrt(err2) / float(np.linalg.norm(x_true))
    psnr = math.inf if err2 == 0.0 else \
        10.0 * math.log10(peak ** 2 * x_true.size / err2)
    return {"rel_l2": rel, "psnr": psnr}


# ---------------------------------------------------------------------------
# Run report
# ---------------------------------------------------------------------------

REPORT_SCHEMA_VERSION = 1


@dataclass
class RunReport:
    """Self-describing record of one estimator run."""

    estimator: str
    config: dict
    iterations: int
    converged: bool | None  # None: the estimator has no convergence test
    nu: float | None = None
    lam: float | None = None
    seed: int | None = None
    metrics: dict | None = None
    wall_time_s: float = 0.0
    outputs: dict = field(default_factory=dict)
    schema_version: int = REPORT_SCHEMA_VERSION

    def to_json(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, path) -> "RunReport":
        with open(path, encoding="ascii") as fh:
            data = json.load(fh)
        version = data.pop("schema_version", None)
        if version != REPORT_SCHEMA_VERSION:
            raise FileFormatError(
                f"unsupported report schema_version {version!r}")
        return cls(schema_version=version, **data)


# ---------------------------------------------------------------------------
# PGM (netpbm P2 / P5), maxval 255
# ---------------------------------------------------------------------------

def write_pgm(path, img: np.ndarray, binary: bool = True):
    """Write a float image (clipped to [0, 1], quantised to 8 bits).

    ``binary`` selects P5; otherwise ASCII P2 is written.
    """
    img = np.asarray(img, dtype=float)
    if img.ndim != 2:
        raise ValueError("write_pgm expects a 2-D array")
    q = np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    rows, cols = q.shape
    if binary:
        with open(path, "wb") as fh:
            fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
            fh.write(q.tobytes(order="C"))
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"P2\n{cols} {rows}\n255\n")
            for row in q:
                fh.write(" ".join(str(int(v)) for v in row))
                fh.write("\n")


def _pgm_tokens(data: bytes):
    """Yield (token, byte_offset) over the header/ASCII sections, skipping
    whitespace and # comments."""
    i, n = 0, len(data)
    while i < n:
        c = data[i:i + 1]
        if c.isspace():
            i += 1
            continue
        if c == b"#":
            while i < n and data[i:i + 1] not in (b"\n", b"\r"):
                i += 1
            continue
        start = i
        while i < n and not data[i:i + 1].isspace() and data[i:i + 1] != b"#":
            i += 1
        yield data[start:i], start, i


def read_pgm(path) -> np.ndarray:
    """Read a P2 or P5 PGM into a float array in [0, 1].

    Malformed headers, truncated payloads and pixel values above maxval
    raise :class:`FileFormatError` with the byte offset of the problem.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = _pgm_tokens(data)

    def next_token(expect: str):
        try:
            return next(tokens)
        except StopIteration:
            raise FileFormatError(f"unexpected end of file, expected {expect}",
                                  offset=len(data)) from None

    magic, off, _ = next_token("magic number")
    if magic not in (b"P2", b"P5"):
        raise FileFormatError(f"not a PGM file (magic {magic!r})", offset=off)

    def next_int(what: str, limit: int) -> tuple[int, int]:
        tok, off, end = next_token(what)
        try:
            val = int(tok)
        except ValueError:
            raise FileFormatError(f"invalid {what} {tok!r}", offset=off) \
                from None
        if not 0 < val <= limit:
            raise FileFormatError(f"{what} {val} out of range 1..{limit}",
                                  offset=off)
        return val, end

    cols, _ = next_int("width", 65535)
    rows, _ = next_int("height", 65535)
    maxval, header_end = next_int("maxval", 65535)
    if magic == b"P5":
        if maxval > 255:
            raise FileFormatError(f"P5 maxval {maxval} > 255 not supported",
                                  offset=header_end)
        # exactly one whitespace byte separates the header from the raster
        payload = data[header_end + 1:]
        need = rows * cols
        if len(payload) < need:
            raise FileFormatError(
                f"truncated P5 payload: need {need} bytes, have {len(payload)}",
                offset=len(data))
        raw = np.frombuffer(payload[:need], dtype=np.uint8)
        over = np.flatnonzero(raw > maxval)
        if over.size:
            raise FileFormatError(
                f"pixel value {raw[over[0]]} exceeds maxval {maxval}",
                offset=header_end + 1 + int(over[0]))
        return raw.reshape(rows, cols).astype(float) / maxval

    vals = np.empty(rows * cols, dtype=float)
    for idx in range(rows * cols):
        tok, off, _ = next_token("pixel value")
        try:
            v = int(tok)
        except ValueError:
            raise FileFormatError(f"invalid pixel value {tok!r}", offset=off) \
                from None
        if not 0 <= v <= maxval:
            raise FileFormatError(f"pixel value {v} exceeds maxval {maxval}",
                                  offset=off)
        vals[idx] = v
    return (vals / maxval).reshape(rows, cols)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def write_signal_csv(path, values: np.ndarray, header: str = "value"):
    """One sample per line at 17 significant digits (lossless round trip)."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow([header])
        for v in np.asarray(values, dtype=float):
            writer.writerow([format(v, ".17g")])


def read_signal_csv(path) -> np.ndarray:
    with open(path, newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        try:
            next(reader)  # header
        except StopIteration:
            raise FileFormatError("empty CSV file", offset=0) from None
        try:
            values = np.array([float(row[0]) for row in reader if row])
        except (ValueError, IndexError) as exc:
            raise FileFormatError(f"malformed CSV row: {exc}") from None
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise FileFormatError(f"non-finite CSV value {float(values[bad])} "
                              f"at data row {bad + 1}")
    return values


def write_table_csv(path, header: list[str], rows):
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(float(v), ".17g") for v in row])


def read_table_csv(path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FileFormatError("empty CSV file", offset=0) from None
        try:
            body = np.array([[float(v) for v in row] for row in reader if row])
        except ValueError as exc:
            raise FileFormatError(f"malformed CSV row: {exc}") from None
    return header, body
