"""The `%.16e` encoder of `write_table` (`output._encode_rows`) against
Python's `%` formatting, byte for byte."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ksunfold import output
from ksunfold.output import (
    _POW10_MAX, _POW10_MIN, _ROUND_EPS, _encode_rows, _pow10_table,
    write_table,
)
from ksunfold.sampling import rng_from_seed


def _percent_writer(block):
    """The block `%` writer that `write_table` used before the encoder."""
    row = ",".join(["%.16e"] * block.shape[1]) + "\r\n"
    return ((row * len(block)) % tuple(block.ravel().tolist())).encode()


def _assert_encodes(block):
    block = np.asarray(block, dtype=float)
    assert _encode_rows(block).tobytes() == _percent_writer(block)


@pytest.fixture
def fallbacks(monkeypatch):
    """The values the encoder hands to `_fallback_text`, in order."""
    seen = []
    real = output._fallback_text

    def recording(values):
        seen.extend(values.tolist())
        return real(values)

    monkeypatch.setattr(output, "_fallback_text", recording)
    return seen


def _tie_or_not_finite(v):
    """Whether v is not finite or lies exactly halfway between two 17-digit
    decimals: the only values the encoder may hand to `_fallback_text`."""
    if not math.isfinite(v):
        return True
    if v == 0.0:
        return False
    e = Decimal(abs(v)).adjusted()  # Decimal(v) is v exactly
    s = Fraction(abs(v)) * Fraction(10) ** (16 - e)
    return s - math.floor(s) == Fraction(1, 2)


_SPECIAL = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
            2.2250738585072014e-308, 2.225073858507201e-308,
            1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0,
            0.1, 1.0 / 3.0, 1e16, 1e17, 1e22, 1e23, 9007199254740993.0]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                          allow_subnormal=True), min_size=1, max_size=40))
def test_arbitrary_floats_match_percent(values):
    column = np.array(values).reshape(-1, 1)
    _assert_encodes(column)       # one value a row
    _assert_encodes(column.T)     # one row of many values


def test_special_values_match_percent():
    values = np.array(_SPECIAL)
    _assert_encodes(values.reshape(-1, 1))
    _assert_encodes(values.reshape(3, 7))


def test_a_million_random_bit_patterns_match_percent(tmp_path):
    bits = rng_from_seed(8).integers(0, 2 ** 64, size=2 ** 20,
                                     dtype=np.uint64, endpoint=False)
    table = bits.view(np.float64).reshape(-1, 16)
    path = tmp_path / "bits.csv"
    write_table(path, [f"c{i}" for i in range(16)], table)
    data = path.read_bytes()
    head = b",".join(f"c{i}".encode() for i in range(16)) + b"\r\n"
    assert data.startswith(head)
    pos = len(head)
    for lo in range(0, len(table), 4096):
        expect = _percent_writer(table[lo:lo + 4096])
        assert data[pos:pos + len(expect)] == expect
        pos += len(expect)
    assert pos == len(data)


def _ulp_steps(x, k):
    """x and its k nearest neighbours on each side."""
    out = [x]
    lo = hi = x
    for _ in range(k):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


# log10 misses the decimal exponent of about half of these values; the
# encoder corrects it, and only exact ties fall back


def test_powers_of_ten_and_their_neighbours_match_percent(fallbacks):
    values = []
    for k in range(-323, 309):
        values += _ulp_steps(float(f"1e{k}"), 5)
    _assert_encodes(np.array(values).reshape(-1, 11))
    assert all(_tie_or_not_finite(v) for v in fallbacks)


def test_decade_carries_match_percent(fallbacks):
    # the nearest double to 9.99999999999999999e+k rounds up to 1e+(k+1)
    values = []
    for k in range(-308, 308):
        for nines in ("9.999999999999999", "9.9999999999999999",
                      "9.99999999999999999"):
            values += _ulp_steps(float(f"{nines}e{k}"), 2)
    _assert_encodes(np.array(values).reshape(-1, 15))
    assert all(_tie_or_not_finite(v) for v in fallbacks)


def test_exact_ties_fall_back_and_match_percent(fallbacks):
    # for odd j, 1 + j 2^-17 and 8 + j 2^-17 have 18 significant digits,
    # the last a 5: exact ties at 17 digits, rounded to even by `%`
    j = np.arange(1, 4096, 2)
    ties = np.concatenate([1.0 + j * 2.0 ** -17, -(8.0 + j * 2.0 ** -17)])
    _assert_encodes(ties.reshape(-1, 8))
    assert len(fallbacks) == ties.size
    assert all(_tie_or_not_finite(v) for v in fallbacks)


def test_subnormals_and_their_neighbours_match_percent(fallbacks):
    # every power of two from the smallest subnormal past the smallest
    # normal, their neighbours, and a spread of subnormal significands
    values = []
    for k in range(-1074, -1016):
        values += _ulp_steps(2.0 ** k, 3)
    bits = rng_from_seed(9).integers(1, 2 ** 52, size=1024, dtype=np.uint64)
    values += bits.view(np.float64).tolist()
    values += [-v for v in values]
    _assert_encodes(np.array(values).reshape(-1, 4))
    assert all(_tie_or_not_finite(v) for v in fallbacks)


def test_gallery_like_values_mostly_take_the_vector_path(fallbacks):
    rng = rng_from_seed(2)
    block = rng.normal(size=(512, 16)) * 10.0 ** rng.integers(-5, 5, (512, 16))
    _assert_encodes(block)
    assert all(_tie_or_not_finite(v) for v in fallbacks)


def test_pow10_table_is_within_the_bound():
    # each entry: 2^c with c = floor(log2(10^k) / 2), and t_hi + t_lo within
    # 2^-106 relative of 10^k 2^-c, the table's share of _ROUND_EPS
    scale, t_hi, t_lo = _pow10_table()
    assert len(scale) == _POW10_MAX - _POW10_MIN + 1
    for k, c2, hi, lo in zip(range(_POW10_MIN, _POW10_MAX + 1),
                             scale.tolist(), t_hi.tolist(), t_lo.tolist()):
        mant, c = math.frexp(c2)
        c -= 1
        assert mant == 0.5, k
        p = Fraction(10) ** k
        assert Fraction(2) ** (2 * c) <= p < Fraction(2) ** (2 * c + 2), k
        t = p / Fraction(2) ** c
        assert abs(Fraction(hi) + Fraction(lo) - t) <= t / 2 ** 106, k
        assert abs(lo) <= math.ulp(hi) / 2, k
    assert _ROUND_EPS == 8 * 2.0 ** -106


def _half_bound(monkeypatch):
    """A bound of at least 1/2 for every s >= 1e16."""
    monkeypatch.setattr(output, "_ROUND_EPS", 0.5e-16)


@pytest.mark.parametrize("force", [_half_bound])
def test_a_bound_of_a_half_sends_every_value_to_the_fallback(
        monkeypatch, fallbacks, force):
    rng = rng_from_seed(5)
    block = rng.normal(size=(64, 16)) * 10.0 ** rng.integers(-320, 308, (64, 16))
    block.reshape(-1)[:len(_SPECIAL)] = _SPECIAL
    force(monkeypatch)
    _assert_encodes(block)
    assert len(fallbacks) == block.size
