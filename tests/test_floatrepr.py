"""The csv-bundle's number kernel: `repr_bytes` gives every float64 the bytes
of its `repr`.

A few hundred random examples are too weak on their own: a table of powers
of ten rounded down, or ties sent to the lower digit, break only a few dozen
of 10^5 random bit patterns.  So a seeded 2^18-pattern sample runs beside the
edge sets (powers of two and their neighbours, powers of ten, the smallest
subnormals) that reach each branch of the digit rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab._floatrepr import WIDTH, repr_bytes

from _oracles import SPECIALS


def assert_reprs(values):
    """Each row's nonzero bytes are exactly `float.__repr__` of its number."""
    flat = np.ravel(np.asarray(values, dtype=np.float64))
    text = repr_bytes(flat)
    want = [float.__repr__(x).encode() for x in flat]
    kept = text != 0
    assert text.shape[0] == flat.size and text.shape[1] <= WIDTH
    if (np.array_equal(kept.sum(axis=1), list(map(len, want)))
            and text[kept].tobytes() == b"".join(want)):
        return
    bad = [(w, bytes(row[row != 0])) for w, row in zip(want, text) if w != bytes(row[row != 0])]
    pytest.fail(f"{len(bad)} of {flat.size} numbers differ, e.g. {bad[:5]}")


def from_bits(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_any_bit_pattern(bits):
    assert_reprs(from_bits(bits))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_any_float(values):
    assert_reprs(values)


def test_a_seeded_sample_of_random_bit_patterns():
    rng = np.random.default_rng(20260)
    assert_reprs(rng.integers(0, 2**64, size=2**18, dtype=np.uint64).view(np.float64))


def test_every_power_of_two_and_its_neighbours():
    # c = 2^52 takes the narrower interval below v, the neighbours do not
    p = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_reprs(np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf), -p]))


def test_powers_of_ten():
    assert_reprs([float(f"1e{k}") for k in range(-323, 309)])


def test_the_smallest_subnormals():
    # one digit shorter than floor(v 10^-k) is not short enough here
    sub = from_bits(np.arange(1, 2048))
    assert_reprs(np.concatenate([sub, -sub]))


def test_specials():
    # both zeros, NaNs with three bit patterns, both infinities, subnormals
    assert_reprs(SPECIALS)


def test_texts_on_both_sides_of_the_exponent_rule():
    # `repr` writes decimal points -3..16 without an exponent
    assert_reprs([1e-5, 1.5e-5, 1e-4, 1.25e-4, 0.1, 1.0, 123.0, 1e15, 1234567890123456.0,
                  1e16, 1.5e16, 9007199254740993.0, 1.7976931348623157e308,
                  2.2250738585072014e-308, -1e-300, 5e-5, 0.3, 2.0 / 3.0])


def test_integers_and_three_decimal_values():
    rng = np.random.default_rng(20261)
    assert_reprs(np.arange(-5000.0, 5000.0))
    assert_reprs(np.round(rng.uniform(-1000.0, 1000.0, 5000), 3))


def test_repeated_bit_patterns_keep_their_own_text():
    # a column with at most half its patterns distinct is formatted once per
    # pattern; zeros and NaNs must not merge by value
    values = np.resize(np.concatenate([SPECIALS, [1.0, -2.5, 1e300]]), 4096)
    assert_reprs(values)
    assert_reprs(values.reshape(64, 64))
