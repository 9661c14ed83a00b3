"""The output format: the one file writer, `overwrite`, and the JSON and
CSV writers over it, with the CSV's `%.16e` encoder."""

import csv
import io
import itertools
import json
import math
import os
import stat

import numpy as np

__all__ = ["overwrite", "write_json", "write_table"]

# most rows per block in `write_table`: bounds the encoder's working memory
_CSV_BLOCK = 512

# how `overwrite` opens a file: no O_TRUNC, so a file that exists keeps its
# blocks; O_BINARY (Windows only) turns off newline translation
_OVERWRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)

# The `%.16e` encoder forms s = |v| 10^(16-e), for the decimal exponent e
# of v, in float64 as hi + lo.  For each _POW10_MIN <= k <= _POW10_MAX,
# `_pow10_table` holds 2^c, c = floor(log2(10^k) / 2), and a double-double
# t_hi + t_lo within 2^-106 relative of t = 10^k 2^-c.  Halving the binary
# exponent between them keeps x = |v| 2^c exact and every product below in
# the normal range.  Then hi + err = x t_hi exactly (Dekker's TwoProduct)
# and lo = err + x t_lo.  With u = 2^-53, |err| and |x t_lo| are at most
# u (1 + u) s, so the table's error (u^2 s), the rounding of x t_lo (u^2 s)
# and of lo (2 u^2 s), and that of the fraction of lo (2^-54, under
# 0.46 u^2 s for s >= 1e16) put that fraction within 4.5 u^2 s of exact.
# _ROUND_EPS is 8 u^2: under 1e-14 for s < 1e17.
_POW10_MIN, _POW10_MAX = -360, 360
_ROUND_EPS = 2.0 ** -103
_VELTKAMP = 2.0 ** 27 + 1.0  # splits a 53-bit significand in two halves
# exponent e of a value is stored at index e + _EXP_BIAS
_EXP_BIAS = 400
_ENCODER_TABLES = None  # built by `_encoder_tables` on first use


def overwrite(path, chunks):
    """Write the byte chunks to `path` in order over the bytes it holds,
    then cut a regular file to their total length.

    The file is not truncated first: on a file that exists, that frees its
    blocks and allocates them again, and ext4 flushes it on close.  A new
    file gets the permission bits `open(path, "w")` gives (0o666 less the
    umask).  A target that is not a regular file, such as /dev/null or a
    FIFO, is written and not cut.  A write that fails part way leaves the
    new bytes over the old ones, and nothing is fsynced.  An OSError names
    `path`."""
    try:
        with open(os.open(path, _OVERWRITE_FLAGS, 0o666), "wb") as fh:
            # holds no chunk while the next one is made
            fh.writelines(chunks)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as exc:
        if exc.filename is None:  # a failed write or close names no file
            exc.filename = path
        raise


def write_json(path, payload):
    """`payload` as JSON, indented by 2 with sorted keys and a final
    newline, in one `overwrite` chunk (`json.dump` with an indent writes
    each token on its own)."""
    overwrite(path, [(json.dumps(payload, indent=2, sort_keys=True)
                      + "\n").encode()])


def write_table(path, header, table):
    """CSV of a float table: the header as `csv.writer` writes it, then
    every value as `%.16e` (17 significant digits, as f"{v:.16e}"), CRLF
    line ends, encoded by `_encode_rows` in blocks of at most _CSV_BLOCK
    rows of nearly equal size, each written by `overwrite` as it is
    encoded."""
    table = np.asarray(table, dtype=float)
    n = len(table)
    blocks = -(-n // _CSV_BLOCK)
    line = io.StringIO()
    csv.writer(line).writerow(header)
    # the column names are ASCII, so these are the bytes a text file in any
    # ASCII-compatible encoding holds
    overwrite(path, itertools.chain([line.getvalue().encode()], (
        _encode_rows(table[i * n // blocks:(i + 1) * n // blocks])
        for i in range(blocks))))


def _pow10_table():
    """(2^c, t_hi, t_lo) for each _POW10_MIN <= k <= _POW10_MAX, with
    c = floor(log2(10^k) / 2), t_hi the double nearest t = 10^k 2^-c and t_lo
    the double nearest t - t_hi, from exact integer ratios (an int / int
    quotient is correctly rounded)."""
    scale, t_hi, t_lo = [], [], []
    for k in range(_POW10_MIN, _POW10_MAX + 1):
        n, d = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)  # 10^k = n / d
        b = n.bit_length() - d.bit_length()
        b -= (n << max(-b, 0)) < (d << max(b, 0))  # now b = floor(log2 n/d)
        c = b // 2
        n, d = (n, d << c) if c >= 0 else (n << -c, d)  # t = n / d
        hi = n / d
        m, q = hi.as_integer_ratio()
        scale.append(math.ldexp(1.0, c))
        t_hi.append(hi)
        t_lo.append((n * q - m * d) / (d * q))
    return np.array(scale), np.array(t_hi), np.array(t_lo)


def _encoder_tables():
    """(`_pow10_table`, 4-digit words, exponent head and tail words) of
    `_encode_rows`, built once."""
    global _ENCODER_TABLES
    if _ENCODER_TABLES is None:
        quads = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
        e = np.arange(-_EXP_BIAS, _EXP_BIAS + 1)
        ae = np.abs(e)
        head = (ord("e") + np.where(e < 0, ord("-"), ord("+")) * 2 ** 8
                + np.where(ae >= 100, 48 + ae // 100, 0) * 2 ** 16
                + (48 + ae // 10 % 10) * 2 ** 24)
        _ENCODER_TABLES = (_pow10_table(),
                           (48 + quads).astype(np.uint8).view("<u4").ravel(),
                           head.astype("<u4"), (48 + ae % 10).astype("<u4"))
    return _ENCODER_TABLES


def _split(x):
    """Veltkamp's split: x = high + low exactly, each half of 26 bits (the
    sign carries the 53rd)."""
    c = x * _VELTKAMP
    high = c - (c - x)
    return high, x - high


def _scaled(a, k):
    """s = a 10^k as hi + lo, for positive finite a and integers k in the
    table: hi is the double nearest s, and hi + lo is within 4.01 u^2 s of s
    (see _ROUND_EPS)."""
    scale, t_hi, t_lo = _encoder_tables()[0]
    i = k - _POW10_MIN
    x = a * scale.take(i, mode="clip")
    t = t_hi.take(i, mode="clip")
    (xh, xl), (th, tl) = _split(x), _split(t)
    hi = x * t
    err = ((xh * th - hi) + xh * tl + xl * th) + xl * tl
    return hi, err + x * t_lo.take(i, mode="clip")


def _fallback_text(values):
    """`%.16e` of each value, NUL-padded to 25 bytes."""
    text = np.array(["%.16e" % v for v in values.tolist()], dtype="S25")
    return text.view(np.uint8).reshape(-1, 25)


def _encode_rows(block):
    """The CSV body of a (rows, cols) float block, as a uint8 array of the
    bytes that formatting every value with `"%.16e" %`, joined by "," with
    CRLF row ends, gives.

    For finite nonzero v with decimal exponent e, s = |v| 10^(16-e) lies in
    [1e16, 1e17) and `_scaled` gives it as hi + lo with hi an integer and
    the fraction of lo within _ROUND_EPS s of exact, so the 17 digits are
    D = hi + floor(lo) + [frac(lo) > 1/2] unless that fraction is within
    the bound of 1/2 (exact ties among them).  Those values and the
    non-finite ones take `_fallback_text`.  Zero has D = 0 and e = 0.
    """
    _, quads, exp_head, exp_tail = _encoder_tables()
    rows, cols = block.shape
    v = block.reshape(-1)
    finite = np.isfinite(v)
    zero = v == 0.0
    a = np.where(finite & ~zero, np.abs(v), 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    s_hi, s_lo = _scaled(a, 16 - e)
    floor = np.floor(s_lo)
    d = s_hi.astype(np.int64) + floor.astype(np.int64)
    # next to a power of ten log10 can miss e by one
    low, high = d < 10 ** 16, d >= 10 ** 17
    miss = np.flatnonzero(low | high)
    if miss.size:
        e += high
        e -= low
        s_hi[miss], s_lo[miss] = _scaled(a[miss], 16 - e[miss])
        floor[miss] = np.floor(s_lo[miss])
        d[miss] = s_hi[miss].astype(np.int64) + floor[miss].astype(np.int64)
    frac = s_lo - floor
    exact = finite & (d >= 10 ** 16) & (
        np.abs(frac - 0.5) > _ROUND_EPS * (s_hi + s_lo))
    d += frac > 0.5
    exact &= d <= 10 ** 17
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e += carry
    d[zero] = 0
    e[zero] = 0
    hi = d // 10 ** 8
    lo = (d - hi * 10 ** 8).astype(np.uint32)
    hi = hi.astype(np.uint32)
    lead = hi // 10 ** 8
    hi -= lead * 10 ** 8
    # a value is 7 little-endian words (28 bytes), NUL bytes dropped:
    #   NUL sign D "." | DDDD | DDDD | DDDD | DDDD | "e" sign H T | U sep NUL
    # sign is "-" or NUL, H the exponent's hundreds digit or NUL, and sep
    # "," NUL after a row's inner values and CR LF after its last
    w = np.empty((7, v.size), dtype="<u4")
    np.multiply(np.signbit(v), np.uint32(ord("-") << 8), out=w[0])
    w[0] += (lead << 16) + np.uint32(0x2E300000)
    # every index is in range; "clip" only spares take a checked copy
    q = hi // 10 ** 4
    np.take(quads, q, out=w[1], mode="clip")
    np.take(quads, hi - q * 10 ** 4, out=w[2], mode="clip")
    q = lo // 10 ** 4
    np.take(quads, q, out=w[3], mode="clip")
    np.take(quads, lo - q * 10 ** 4, out=w[4], mode="clip")
    e += _EXP_BIAS
    np.take(exp_head, e, out=w[5], mode="clip")
    np.take(exp_tail, e, out=w[6], mode="clip")
    sep = np.full(cols, ord(",") << 8, dtype="<u4")
    sep[-1] = 0x0A0D00
    w[6].reshape(rows, cols)[:] += sep
    out = np.ascontiguousarray(w.T).view(np.uint8)
    bad = np.flatnonzero(~exact)
    if bad.size:
        out[bad, :25] = _fallback_text(v[bad])
    return np.frombuffer(out.tobytes().translate(None, b"\0"), np.uint8)
