import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from perdec.config import is_annihilated
from perdec.errors import DimensionMismatch, LatticeError
from perdec.laurent import (LaurentPoly, difference_poly, line_direction,
                            poly_product, support_in_subspace)
from perdec.lattice import SubspaceBasis, primitive

from helpers import periodic_from_function, random_hnf_basis


def P(dim, terms):
    return LaurentPoly(dim, terms)


def polys(dim=2):
    term = st.tuples(
        st.tuples(*([st.integers(-4, 4)] * dim)), st.integers(-9, 9))
    return st.lists(term, max_size=5).map(
        lambda ts: LaurentPoly(dim, {e: c for e, c in ts if c}))


def test_add_examples():
    x1 = LaurentPoly.monomial((1, 0))
    x2 = LaurentPoly.monomial((0, 1))
    assert ((x1 - 1) + (1 - x1)).is_zero()
    assert (x1 - 1) + (x2 - 1) == x1 + x2 - 2


def test_mul_examples():
    x1 = LaurentPoly.monomial((1, 0))
    x2 = LaurentPoly.monomial((0, 1))
    assert (x1 - 1) * (x1 + 1) == LaurentPoly(2, {(2, 0): 1, (0, 0): -1})
    assert (x1 - 1) * (x2 - 1) == LaurentPoly(
        2, {(1, 1): 1, (1, 0): -1, (0, 1): -1, (0, 0): 1})
    assert ((x1 - 1) * LaurentPoly.zero(2)).is_zero()


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        LaurentPoly.monomial((1, 0)) + LaurentPoly.monomial((1, 0, 0))
    with pytest.raises(DimensionMismatch):
        LaurentPoly.monomial((1, 0)) * LaurentPoly.monomial((1,))


@settings(max_examples=60)
@given(polys(), polys(), polys())
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


def test_difference_poly_examples():
    assert difference_poly((1, 0)) == P(2, {(1, 0): 1, (0, 0): -1})
    assert difference_poly((2, -3)) == P(2, {(2, -3): 1, (0, 0): -1})
    with pytest.raises(LatticeError):
        difference_poly((0, 0))


def test_non_integral_entries_raise_instead_of_truncating():
    # an entry int() would change is refused, never truncated
    half = Fraction(1, 2)
    for make in (lambda: P(2, {(0, 0): half, (1, 0): 1}),
                 lambda: P(2, {(half, 0): 1, (1, 0): 1}),
                 lambda: LaurentPoly.monomial((0, half)),
                 lambda: LaurentPoly.monomial((0, 1), half),
                 lambda: difference_poly((half, 1)),
                 lambda: P(2, {("1", 0): 1})):
        with pytest.raises(LatticeError, match="non-integer entry"):
            make()


def test_integral_fractions_read_as_ints():
    f = P(2, {(Fraction(4, 2), 0): Fraction(-6, 2), (0, 0): 1})
    assert f == P(2, {(2, 0): -3, (0, 0): 1})
    assert all(type(x) is int
               for exp, coef in f.terms() for x in exp + (coef,))
    assert LaurentPoly.monomial((Fraction(1), 0), Fraction(3)) == \
        P(2, {(1, 0): 3})
    assert difference_poly((Fraction(2), Fraction(-1))) == \
        difference_poly((2, -1))


def test_difference_poly_annihilates_periodic():
    rng = random.Random(5)
    for _ in range(40):
        basis = random_hnf_basis(rng, 2, 24)
        c = periodic_from_function(
            2, basis, lambda r: rng.randint(-3, 3))
        v = basis[rng.randrange(2)]
        assert is_annihilated(difference_poly(v), c).holds


def test_line_direction_examples():
    f = P(2, {(3, 0): 1, (1, 0): -2, (0, 0): 5})
    desc = line_direction(f)
    assert desc.direction == (1, 0) and desc.anchor == (0, 0)
    assert line_direction(P(2, {(1, 1): 1, (1, 0): 1, (0, 1): 1})) is None
    assert line_direction(P(2, {(2, 4): 1, (1, 2): -1})).direction == (1, 2)


def test_line_direction_degenerate():
    assert line_direction(LaurentPoly.zero(2)) is None
    assert line_direction(LaurentPoly.monomial((3, 1))) is None


def test_line_direction_monomial_shift_invariance():
    rng = random.Random(9)
    for _ in range(30):
        v = (rng.randint(-3, 3), rng.randint(-3, 3))
        if not any(v):
            continue
        f = difference_poly(v) * rng.randint(1, 3)
        t = (rng.randint(-4, 4), rng.randint(-4, 4))
        a, b = line_direction(f), line_direction(f * LaurentPoly.monomial(t))
        assert a.direction == b.direction
        assert b.anchor == tuple(x + y for x, y in zip(a.anchor, t))


def test_line_direction_of_scaled_difference():
    for p in (-3, -1, 1, 2, 5):
        v = (2, -4)
        desc = line_direction(difference_poly(tuple(p * x for x in v)))
        assert desc.direction == primitive(v)


def test_support_in_subspace_examples():
    V = SubspaceBasis(2, [(0, 1)])
    assert support_in_subspace(difference_poly((1, 0)), V) == {(0, 0)}
    assert support_in_subspace(difference_poly((0, 1)), V) == {(0, 0), (0, 1)}
    f = P(2, {(1, 2): 3, (-2, 0): 1, (0, 0): -1})
    full = SubspaceBasis(2, [(1, 0), (0, 1)])
    assert support_in_subspace(f, full) == set(f.support())


def test_difference_product_support_size():
    rng = random.Random(2)
    for _ in range(50):
        u = (rng.randint(-3, 3), rng.randint(-3, 3))
        v = (rng.randint(-3, 3), rng.randint(-3, 3))
        if not any(u) or not any(v) or u == v:
            continue
        prod = difference_poly(u) * difference_poly(v)
        pts = {(0, 0), u, v, tuple(a + b for a, b in zip(u, v))}
        if len(pts) == 4:
            assert len(prod) == 4
        assert prod == poly_product([difference_poly(u), difference_poly(v)])


def test_terms_sorted_lexicographically():
    f = P(2, {(1, 0): 2, (-1, 3): 1, (0, 0): -1})
    assert [e for e, _ in f.terms()] == sorted(f.support())


def test_repr_roundtrippable_enough():
    f = P(2, {(1, 0): 2, (0, 0): -1})
    assert "X1" in repr(f)
    assert repr(LaurentPoly.zero(2)) == "0"
