import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from statransport.errors import SpecError
from statransport.polycalc import Polynomial, symmetric_coefficients

int_coeffs = st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=9)


def test_trailing_zeros_trimmed():
    assert Polynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert Polynomial((0, 0, 0)).coeffs == (0,)
    assert Polynomial(()).coeffs == (0,)
    assert Polynomial((0,)).degree == 0


def test_eval_matches_numpy():
    rng = np.random.default_rng(0)
    c = rng.standard_normal(7)
    p = Polynomial(tuple(c))
    x = rng.standard_normal(11)
    assert np.allclose(p(x), np.polynomial.polynomial.polyval(x, c), rtol=1e-13)


def test_eval_scalar_agrees_with_array():
    p = Polynomial((1.5, -2.0, 0.25))
    xs = np.linspace(-1.0, 2.0, 7)
    arr = p(xs)
    for x, v in zip(xs, arr):
        assert p(float(x)) == pytest.approx(v, rel=1e-15)


@given(int_coeffs, int_coeffs, st.integers(min_value=-20, max_value=20))
def test_ring_ops_agree_with_pointwise(ca, cb, x):
    # integer coefficients and integer arguments keep everything exact
    p, q = Polynomial(tuple(ca)), Polynomial(tuple(cb))
    assert (p + q)(x) == p(x) + q(x)
    assert (p - q)(x) == p(x) - q(x)
    assert (p * q)(x) == p(x) * q(x)


@given(int_coeffs)
def test_antiderivative_inverts_derivative(cs):
    p = Polynomial(tuple(cs)).as_fraction()
    assert p.antiderivative().derivative().coeffs == p.coeffs


@given(int_coeffs, st.integers(min_value=0, max_value=4))
def test_derivative_drops_degree(cs, k):
    p = Polynomial(tuple(cs))
    d = p.derivative(k)
    assert d.degree <= max(p.degree - k, 0)


def test_monomial_integral_exact():
    for k in range(9):
        mono = Polynomial((0,) * k + (1,))
        assert mono.definite_integral(0, 1) == Fraction(1, k + 1)


def test_derivative_order_and_validation():
    cube = Polynomial((0, 0, 0, 1))
    assert cube.derivative(2).coeffs == (0, 6)
    assert cube.derivative(5).coeffs == (0,)
    with pytest.raises(ValueError):
        cube.derivative(-1)


def test_antiderivative_int_becomes_fraction():
    a = Polynomial((1, 2, 3)).antiderivative()
    assert a.coeffs == (0, Fraction(1), Fraction(1), Fraction(1))
    assert all(isinstance(c, Fraction) for c in a.coeffs[1:])


def test_antiderivative_float_stays_float():
    a = Polynomial((1.0, 2.0)).antiderivative()
    assert a.coeffs == (0.0, 1.0, 1.0)
    assert all(isinstance(c, float) for c in a.coeffs)


def test_scale_and_scalar_mul():
    p = Polynomial((1, -2, 4))
    assert p.scale(3).coeffs == (3, -6, 12)
    assert (2 * p).coeffs == (p * 2).coeffs == (2, -4, 8)


def _explicit_elementary(freqs):
    w2 = [w * w for w in freqs]
    out = [1.0]
    for j in range(1, len(freqs) + 1):
        out.append(float(sum(math.prod(c) for c in itertools.combinations(w2, j))))
    return out


@given(st.lists(st.floats(min_value=0.3, max_value=3.0), min_size=1, max_size=5))
def test_symmetric_matches_explicit_sums(freqs):
    got = symmetric_coefficients(freqs).values
    want = _explicit_elementary(freqs)
    assert len(got) == len(freqs) + 1
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-12)


def _char(pj, x):
    """prod_i (w_i^2 - x), expanded through the elementary symmetric values."""
    return sum(e * (-x) ** (pj.n - j) for j, e in enumerate(pj.values))


def test_char_vanishes_at_squared_roots():
    pj = symmetric_coefficients((0.9, 1.0, 1.3))
    for w in (0.9, 1.0, 1.3):
        assert abs(_char(pj, w * w)) < 1e-12
    assert _char(pj, 0.0) == pytest.approx((0.9 * 1.0 * 1.3) ** 2, rel=1e-12)
    assert pj.n == 3


def test_symmetric_single_frequency():
    pj = symmetric_coefficients((2.0,))
    assert pj.values == (1.0, 4.0)
    assert _char(pj, 4.0) == 0.0


def test_symmetric_rejects_bad_input():
    with pytest.raises(SpecError):
        symmetric_coefficients(())
    with pytest.raises(SpecError):
        symmetric_coefficients((1.0, -2.0))
    with pytest.raises(SpecError):
        symmetric_coefficients((0.0,))
    with pytest.raises(SpecError):
        symmetric_coefficients((float("nan"),))
