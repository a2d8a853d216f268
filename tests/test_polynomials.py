import pytest

from diagclass.polynomials import (
    InexactDivisionError,
    Polynomial,
    poly_divide_exact,
    series_expand_product,
)


def test_construction_trims_trailing_zeros():
    assert Polynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert Polynomial([0, 0]).coeffs == ()
    assert not Polynomial.zero()


def test_arithmetic():
    p = Polynomial([1, 1])
    assert (p * p).coeffs == (1, 2, 1)
    assert (p + 1).coeffs == (2, 1)
    assert (3 * p).coeffs == (3, 3)
    assert (p - p) == Polynomial.zero()
    assert (p**3).coeffs == (1, 3, 3, 1)


def test_getitem_out_of_range_is_zero():
    p = Polynomial([5, 7])
    assert p[0] == 5 and p[1] == 7 and p[9] == 0


def test_exact_division():
    t1 = Polynomial([-1, 1])
    prod = Polynomial([4, 1]) * t1**2
    assert poly_divide_exact(prod, t1**2).coeffs == (4, 1)
    with pytest.raises(InexactDivisionError):
        poly_divide_exact(Polynomial([1, 1, 1]), t1)


def test_series_expand_product():
    # (1 + 5t + 14t^2)(1-t)^3 truncated
    assert series_expand_product(Polynomial([1, 5, 14]), 3, 2) == (1, 2, 2)
    assert series_expand_product(Polynomial.one(), 0, 2) == (1, 0, 0)

