"""The `%.16e` encoder of `write_table` (`integrate._encode_rows`) against
Python's `%` formatting, byte for byte."""

import importlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ksunfold.integrate import (
    _POW10_MAX, _POW10_MIN, _encode_rows, _pow10_table, write_table,
)
from ksunfold.sampling import rng_from_seed

# the module, which the package's `integrate` function shadows
integ = importlib.import_module("ksunfold.integrate")


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
    real = integ._fallback_text

    def recording(values):
        seen.extend(values.tolist())
        return real(values)

    monkeypatch.setattr(integ, "_fallback_text", recording)
    return seen


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
# encoder corrects it, so few of them fall back


def test_powers_of_ten_and_their_neighbours_match_percent(fallbacks):
    values = []
    for k in range(-323, 309):
        values += _ulp_steps(float(f"1e{k}"), 5)
    _assert_encodes(np.array(values).reshape(-1, 11))
    assert len(fallbacks) < 0.05 * len(values)


def test_decade_carries_match_percent(fallbacks):
    # the nearest double to 9.99999999999999999e+k rounds up to 1e+(k+1)
    values = []
    for k in range(-308, 308):
        for nines in ("9.999999999999999", "9.9999999999999999",
                      "9.99999999999999999"):
            values += _ulp_steps(float(f"{nines}e{k}"), 2)
    _assert_encodes(np.array(values).reshape(-1, 15))
    assert len(fallbacks) < 0.05 * len(values)


def test_exact_ties_fall_back_and_match_percent(fallbacks):
    # for odd j, 1 + j 2^-17 and 8 + j 2^-17 have 18 significant digits,
    # the last a 5: exact ties at 17 digits, rounded to even by `%`
    j = np.arange(1, 4096, 2)
    ties = np.concatenate([1.0 + j * 2.0 ** -17, -(8.0 + j * 2.0 ** -17)])
    _assert_encodes(ties.reshape(-1, 8))
    assert len(fallbacks) == ties.size


def test_gallery_like_values_mostly_take_the_vector_path(fallbacks):
    rng = rng_from_seed(2)
    block = rng.normal(size=(512, 16)) * 10.0 ** rng.integers(-5, 5, (512, 16))
    _assert_encodes(block)
    assert len(fallbacks) < 0.05 * block.size


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="np.longdouble is not x87 extended or wider")
def test_pow10_table_is_correctly_rounded():
    table = _pow10_table()
    p = np.finfo(np.longdouble).nmant + 1
    assert len(table) == _POW10_MAX - _POW10_MIN + 1
    for k, x in zip(range(_POW10_MIN, _POW10_MAX + 1), table):
        err = abs(Fraction(*x.as_integer_ratio()) - Fraction(10) ** k)
        half_ulp = Fraction(2) ** (int(np.frexp(x)[1]) - p - 1)
        assert err < half_ulp, k  # no power here is a tie


def _double_longdouble(monkeypatch):
    """Encoder tables and bound as on a platform whose longdouble is a
    double: the powers of ten rounded to doubles (overflowing to inf)."""
    pow10, *rest = integ._encoder_tables()
    with np.errstate(over="ignore"):
        doubles = pow10.astype(np.float64).astype(np.longdouble)
    monkeypatch.setattr(integ, "_ENCODER_TABLES", (doubles, *rest))
    monkeypatch.setattr(integ, "_ROUND_EPS", 2.0 * np.finfo(np.float64).eps)


def _half_bound(monkeypatch):
    """A bound of at least 1/2 for every s >= 1e16."""
    monkeypatch.setattr(integ, "_ROUND_EPS", 0.5e-16)


@pytest.mark.parametrize("force", [_half_bound, _double_longdouble])
def test_a_bound_of_a_half_sends_every_value_to_the_fallback(
        monkeypatch, fallbacks, force):
    rng = rng_from_seed(5)
    block = rng.normal(size=(64, 16)) * 10.0 ** rng.integers(-320, 308, (64, 16))
    block.reshape(-1)[:len(_SPECIAL)] = _SPECIAL
    force(monkeypatch)
    _assert_encodes(block)
    assert len(fallbacks) == block.size
