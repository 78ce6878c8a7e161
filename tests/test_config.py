import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from perdec.config import (FiberSum, LazyConfig, PeriodicConfig,
                           PeriodicFiber, WindowConfig, _convolve_rows,
                           _slot_format, add_views, apply_poly, box_points,
                           box_size, box_strides, detect_period_multiple,
                           is_annihilated, make_fiber, period_lattice,
                           rasterize)
from perdec.errors import (DimensionMismatch, EmptyRegionError, LatticeError,
                           OutOfDomainError, PreconditionError)
from perdec.laurent import LaurentPoly, difference_poly
from perdec.lattice import lattice_determinant, vadd, vscale, vsub

from helpers import (DIRECTIONS_2D, DIRECTIONS_3D, FunctionView, ResidueDict,
                     in_lattice, periodic_from_function,
                     assert_canonical_fibers,
                     assert_segments_match_points, guard_periodic_reads,
                     naive_convolution,
                     random_fiber_family, random_periodic, random_poly,
                     reference_add_views_fibers, reference_apply_poly_fibers,
                     reference_period_multiple,
                     reference_periodic_period_multiple,
                     reference_window_period_multiple,
                     reference_parallel_part_fibers, reference_scaled_fibers,
                     reference_translate_fibers, segment_points,
                     window_from_function)


CHECKER = PeriodicConfig(2, [(2, 0), (0, 2)], [0, 1, 1, 0])


def test_evaluate_examples():
    one = PeriodicConfig.constant(2, 1)
    assert one.value_at((17, -4)) == 1
    fs = FiberSum(2, [make_fiber((0, 0), (1, 0), [3, 5])])
    assert fs.value_at((4, 0)) == 3
    assert fs.value_at((4, 1)) == 0
    assert CHECKER.value_at((3, 2)) == 1  # (3 + 2) mod 2 = 1


def test_window_partial_function_semantics():
    w = WindowConfig((0, 0), (2, 2), list(range(9)))
    assert w.value_at((1, 1)) == 4
    with pytest.raises(OutOfDomainError):
        w.value_at((3, 0))
    with pytest.raises(LatticeError):
        WindowConfig((0, 0), (1, 1), [1, 2, 3])  # wrong array length


def test_window_rejects_non_integral_values():
    # the third value sits at (1, 0) in box order
    with pytest.raises(PreconditionError,
                       match=r"non-integer value 1/2 at \(1, 0\)"):
        WindowConfig((0, 0), (1, 1), [1, 2, Fraction(1, 2), 3])
    with pytest.raises(PreconditionError):
        WindowConfig((0,), (0,), [Fraction(-7, 3)])
    w = WindowConfig((0,), (2,), [Fraction(4, 2), Fraction(-3, 1), 5])
    assert w.values == [2, -3, 5]
    assert all(type(v) is int for v in w.values)
    w = WindowConfig((0,), (1,), [True, 2])
    assert w.values == [1, 2] and type(w.values[0]) is int
    # an all-int list is kept as a copy, not shared with the caller
    ints = [4, 5]
    w = WindowConfig((0,), (1,), ints)
    ints[0] = 9
    assert w.values == [4, 5]
    # a window mixed with a rational view is a lazy view, which rasterize
    # checks instead of truncating
    half = FunctionView(2, lambda x: Fraction(1, 2))
    mixed = add_views([rasterize(CHECKER, (-2, -2), (2, 2)), half])
    assert isinstance(mixed, LazyConfig)
    with pytest.raises(PreconditionError,
                       match=r"non-integer value 1/2 at \(-2, -2\)"):
        rasterize(mixed, (-2, -2), (2, 2))
    whole = FunctionView(2, lambda x: Fraction(2 * x[0], 2))
    mixed = add_views([rasterize(CHECKER, (-2, -2), (2, 2)), whole])
    assert rasterize(mixed, (-2, -2), (2, 2)).values == [
        CHECKER.value_at(x) + x[0] for x in box_points((-2, -2), (2, 2))]
    # it is defined on the window only
    with pytest.raises(OutOfDomainError):
        rasterize(mixed, (-2, -2), (2, 3))


def test_translate_examples():
    for c in (CHECKER, FiberSum(2, [make_fiber((0, 1), (1, 0), [1, 2])]),
              WindowConfig((0, 0), (2, 2), list(range(9)))):
        assert c.convolve([((0, 0), 1)]) == c
        assert c.convolve([((3, -1), 1)]).convolve([((-3, 1), 1)]) == c
    w = WindowConfig((0, 0), (2, 2), list(range(9)))
    shifted = w.convolve([((1, 1), 1)])
    assert shifted.lo == (1, 1) and shifted.hi == (3, 3)
    rng = random.Random(1)
    for c in (CHECKER, FiberSum(2, [make_fiber((0, 1), (1, 0), [1, 2])])):
        t = (rng.randint(-4, 4), rng.randint(-4, 4))
        for x in box_points((-3, -3), (3, 3)):
            assert c.convolve([(t, 1)]).value_at(x) == c.value_at(
                tuple(a - b for a, b in zip(x, t)))


def test_apply_poly_difference_on_periodic():
    # annihilation by X^v - 1 is exactly v-periodicity
    assert is_annihilated(difference_poly((2, 0)), CHECKER).holds
    assert is_annihilated(difference_poly((1, 1)), CHECKER).holds
    assert not is_annihilated(difference_poly((1, 0)), CHECKER).holds


def test_apply_poly_identity_and_parity():
    one = LaurentPoly.constant(2, 1)
    assert apply_poly(one, CHECKER) == CHECKER
    xm2 = periodic_from_function(2, [(2, 0), (0, 1)], lambda r: r[0] % 2)
    out = apply_poly(LaurentPoly(2, {(0, 0): 1, (-1, 0): 1}), xm2)
    assert all(v == 1 for v in out.values)


def test_apply_poly_window_erosion():
    w = window_from_function((0, 0), (4, 4), lambda x: x[0])
    out = apply_poly(difference_poly((1, 0)), w)
    assert out.lo == (1, 0) and out.hi == (4, 4)
    # (fc)(u) = c(u - e1) - c(u) = (u0 - 1) - u0
    assert all(v == -1 for v in out.values)
    tiny = WindowConfig((0, 0), (0, 0), [7])
    with pytest.raises(EmptyRegionError):
        apply_poly(difference_poly((1, 0)), tiny)


# (window lo, window hi, terms): dims 1-3, exponents of both signs,
# coefficients +-1 and others; the last two windows erode to a single point
# and to nothing
WINDOW_CASES = [
    ((-3,), (12,), {(-2,): 1, (0,): -1, (3,): 5}),
    ((-4, -3), (9, 11), {(0, 0): -1, (1, -2): 1, (-3, 2): -4, (2, 2): 7}),
    ((-2, -1, 0), (4, 5, 3), {(0, 0, 0): 2, (-1, 1, 0): -1, (1, 0, -1): 1,
                              (0, -2, 1): -3}),
    ((0, 0), (2, 2), {(-1, -1): 1, (1, 1): -1, (0, 1): 3}),
    ((0,), (3,), {(-2,): 1, (2,): -1}),
]

# (basis, terms): HNF bases with non-zero off-diagonal entries in dims 1-3,
# exponents that reach beyond one period
PERIODIC_CASES = [
    ([(5,)], {(7,): 1, (-6,): -1, (0,): 3}),
    ([(3, 1), (0, 4)], {(5, -7): -1, (-4, 9): 2, (0, 1): 1}),
    ([(2, 1, 3), (0, 3, 2), (0, 0, 4)],
     {(3, -5, 9): 1, (-2, 4, -7): -1, (0, 0, 1): 6, (1, 1, 1): -2}),
]


def _pointwise(terms, c):
    """Reference fc, one point at a time: sum(k * c(u - e)).

    Periodic inputs give the values over the residue box; windows give
    (lo, hi, values) over the points u with every u - e inside the window.
    """
    def at(u):
        return sum(k * c.value_at(vsub(u, e)) for e, k in terms)
    if isinstance(c, PeriodicConfig):
        return [at(r) for r in box_points(*c.residue_box)]
    lo = tuple(a + max(e[i] for e, _ in terms) for i, a in enumerate(c.lo))
    hi = tuple(b + min(e[i] for e, _ in terms) for i, b in enumerate(c.hi))
    return lo, hi, [at(u) for u in box_points(lo, hi)]


@pytest.mark.parametrize("lo,hi,terms", WINDOW_CASES)
def test_apply_poly_window_matches_pointwise_sum(lo, hi, terms):
    rng = random.Random(str((lo, hi)))
    c = window_from_function(lo, hi, lambda x: rng.randint(-9, 9))
    f = LaurentPoly(len(lo), terms)
    elo, ehi, values = _pointwise(f.terms(), c)
    if not values:
        with pytest.raises(EmptyRegionError):
            apply_poly(f, c)
        return
    out = apply_poly(f, c)
    assert (out.lo, out.hi, out.values) == (elo, ehi, values)


@pytest.mark.parametrize("basis,terms", PERIODIC_CASES)
def test_apply_poly_periodic_matches_pointwise_sum(basis, terms):
    rng = random.Random(str(basis))
    dim = len(basis)
    c = periodic_from_function(dim, basis, lambda r: rng.randint(-9, 9))
    assert dim == 1 or any(row[j] for i, row in enumerate(c.lattice_rows)
                           for j in range(i + 1, dim))
    f = LaurentPoly(dim, terms)
    out = apply_poly(f, c)
    assert out.lattice_rows == c.lattice_rows
    assert out.values == _pointwise(f.terms(), c)


def test_apply_poly_kernels_match_pointwise_sum_random():
    rng = random.Random(47)
    for _ in range(120):
        dim = rng.randint(1, 3)
        f = random_poly(rng, dim, max_terms=5, exp_range=rng.choice((1, 6)),
                        coef_range=rng.choice((1, 9)))
        if f.is_zero():
            continue
        c = random_periodic(rng, dim, 40)
        assert apply_poly(f, c).values == _pointwise(f.terms(), c)
        lo = tuple(rng.randint(-4, 4) for _ in range(dim))
        hi = tuple(a + rng.randint(0, 12) for a in lo)
        w = window_from_function(lo, hi, lambda x: rng.randint(-5, 5))
        elo, ehi, values = _pointwise(f.terms(), w)
        if not values:
            with pytest.raises(EmptyRegionError):
                apply_poly(f, w)
            continue
        out = apply_poly(f, w)
        assert (out.lo, out.hi, out.values) == (elo, ehi, values)


def test_periodic_convolution_reads_under_twice_the_table(monkeypatch):
    # shifts far beyond the periods are centered first: the result matches
    # the per-residue sum, and every read of c stays under twice its
    # residue box per axis
    rng = random.Random(53)
    for _ in range(80):
        dim = rng.randint(1, 3)
        f = random_poly(rng, dim, max_terms=4,
                        exp_range=rng.choice((2, 40, 10 ** 6)))
        if f.is_zero():
            continue
        c = random_periodic(rng, dim, 40)
        with monkeypatch.context() as m:
            guard_periodic_reads(m)
            out = apply_poly(f, c)
        assert out.values == _pointwise(f.terms(), c)


def test_apply_zero_poly_gives_zero():
    out = apply_poly(LaurentPoly.zero(2), CHECKER)
    assert isinstance(out, FiberSum) and out.is_zero()


def test_is_annihilated_examples():
    assert is_annihilated(difference_poly((2, 0)), CHECKER).holds
    verdict = is_annihilated(difference_poly((1, 0)), CHECKER)
    assert verdict.exact and not verdict.holds
    anything = random_poly(random.Random(0), 2)
    if not anything.is_zero():
        assert is_annihilated(anything, FiberSum.zero(2)).holds


def test_is_annihilated_window_region():
    w = rasterize(CHECKER, (-4, -4), (4, 4))
    verdict = is_annihilated(difference_poly((2, 0)), w)
    assert verdict.holds and not verdict.exact
    assert verdict.region == ((-2, -4), (4, 4))


def test_period_lattice_examples():
    const = periodic_from_function(2, [(4, 0), (0, 4)], lambda r: 7)
    assert period_lattice(const) == ((1, 0), (0, 1))
    rows = period_lattice(CHECKER)
    assert lattice_determinant(rows, 2) == 2
    assert in_lattice((1, 1), rows) and in_lattice((1, -1), rows)
    rng = random.Random(13)
    c = periodic_from_function(
        2, [(3, 0), (0, 3)],
        lambda r: r[0] * 3 + r[1])  # all residues distinct
    assert period_lattice(c) == ((3, 0), (0, 3))


def test_annihilation_iff_period_lattice_membership():
    rng = random.Random(23)
    for _ in range(25):
        c = random_periodic(rng, 2, 36)
        rows = period_lattice(c)
        for _ in range(12):
            v = (rng.randint(-5, 5), rng.randint(-5, 5))
            if not any(v):
                continue
            assert is_annihilated(difference_poly(v), c).holds == \
                in_lattice(v, rows)


def test_rasterize_examples():
    win = rasterize(CHECKER, (-2, -2), (2, 2))
    assert win.value_at((1, 0)) == 1
    sub = rasterize(win, (0, 0), (1, 1))
    assert sub.values == [win.value_at(x) for x in box_points((0, 0), (1, 1))]
    fs = FiberSum(2, [make_fiber((0, 0), (1, 0), [1, 2])])
    w = rasterize(fs, (0, 0), (3, 1))
    for x in box_points((0, 0), (3, 1)):
        assert w.value_at(x) == (0 if x[1] else [1, 2][x[0] % 2])
    with pytest.raises(OutOfDomainError):
        rasterize(win, (-9, -9), (0, 0))


def test_add_views_examples():
    assert add_views([CHECKER, CHECKER], [1, -1]).is_zero()
    merged = add_views([FiberSum(2, [make_fiber((0, 0), (1, 0), [1, 0])]),
                        FiberSum(2, [make_fiber((0, 0), (1, 0), [1, 1, 0])])])
    assert len(merged.fibers) == 1 and merged.fibers[0].period == 6
    assert [merged.value_at((j, 0)) for j in range(6)] == [2, 1, 1, 1, 2, 0]
    a = periodic_from_function(2, [(2, 0), (0, 1)], lambda r: r[0])
    b = periodic_from_function(2, [(1, 0), (0, 2)], lambda r: r[1])
    s = add_views([a, b])
    assert isinstance(s, PeriodicConfig) and s.determinant == 4
    for x in box_points((-3, -3), (3, 3)):
        assert s.value_at(x) == a.value_at(x) + b.value_at(x)


def test_add_views_mixed_kinds():
    fs = FiberSum(2, [make_fiber((0, 0), (1, 0), [1])])
    w = rasterize(CHECKER, (-2, -2), (2, 2))
    mixed = add_views([fs, w])
    assert isinstance(mixed, WindowConfig)
    assert mixed.box == w.box
    lazy = add_views([fs, CHECKER])
    assert isinstance(lazy, LazyConfig)
    for x in box_points((-2, -2), (2, 2)):
        assert lazy.value_at(x) == fs.value_at(x) + CHECKER.value_at(x)
    with pytest.raises(EmptyRegionError):
        add_views([w, w.convolve([((40, 40), 1)])])


def test_action_associativity_on_windows():
    rng = random.Random(31)
    for _ in range(20):
        f = random_poly(rng, 2, max_terms=3, exp_range=2)
        g = random_poly(rng, 2, max_terms=3, exp_range=2)
        if f.is_zero() or g.is_zero():
            continue
        w = window_from_function((-8, -8), (8, 8),
                                 lambda x: rng.randint(-5, 5))
        try:
            lhs = apply_poly(f * g, w)
            rhs = apply_poly(f, apply_poly(g, w))
        except EmptyRegionError:
            continue
        if f * g == LaurentPoly.zero(2):
            continue
        for x in box_points(*_common_box(lhs, rhs)):
            assert lhs.value_at(x) == rhs.value_at(x)


def _common_box(a, b):
    lo = tuple(max(x, y) for x, y in zip(a.lo, b.lo))
    hi = tuple(min(x, y) for x, y in zip(a.hi, b.hi))
    return lo, hi


def test_translate_commutes_with_apply_poly():
    rng = random.Random(37)
    f = difference_poly((1, -1)) * 2 + 3
    t = (2, -3)
    for c in (CHECKER, FiberSum(2, [make_fiber((1, 0), (0, 1), [1, 2, 3])])):
        a = apply_poly(f, c.convolve([(t, 1)]))
        b = apply_poly(f, c).convolve([(t, 1)])
        for x in box_points((-4, -4), (4, 4)):
            assert a.value_at(x) == b.value_at(x)


def test_convolution_matches_naive_oracle_all_representations():
    rng = random.Random(41)
    for _ in range(60):
        kind = rng.choice(("window", "periodic", "fibersum"))
        if kind == "window":
            c = window_from_function((-5, -5), (5, 5),
                                     lambda x: rng.randint(-4, 4))
        elif kind == "periodic":
            c = random_periodic(rng, 2, 16)
        else:
            c = FiberSum(2, [make_fiber((rng.randint(-2, 2), rng.randint(-2, 2)),
                                        rng.choice(((1, 0), (0, 1), (1, 1))),
                                        [rng.randint(-3, 3) for _ in
                                         range(rng.randint(1, 4))] or [1])
                             for _ in range(rng.randint(0, 3)) ])
        f = random_poly(rng, 2, max_terms=4, exp_range=2)
        if f.is_zero():
            continue
        base = c if isinstance(c, WindowConfig) else rasterize(c, (-5, -5), (5, 5))
        lo, hi, expected = naive_convolution(f.terms(), base)
        if any(a > b for a, b in zip(lo, hi)):
            with pytest.raises(EmptyRegionError):
                apply_poly(f, base)
            continue
        assert apply_poly(f, base).box == (lo, hi)
        out = apply_poly(f, c)
        for x in box_points(lo, hi):
            assert out.value_at(x) == expected[x]


# max|v| * sum|k| at the edges of the 2-, 4- and 8-byte slots of the packed
# kernel and past them, each with divisors m to use as max|v|
_SLOT_EDGES = {2**15 - 1: (1, 7, 31, 151), 2**15: (1, 2, 8, 64),
               2**31: (1, 2, 1024), 2**63 - 1: (1, 7, 73, 127),
               2**63 + 1: (1, 3, 19, 43)}


@st.composite
def _row_convolutions(draw):
    """(terms, (lo, hi, values)): box sides 1-8 in dims 1-3 (so some erode
    away), nonzero exponents with coefficients mixing +-1 and |k| >= 2,
    and a term at 0 that puts max|v| * sum|k| on a slot edge, or values
    in +-5 with no such term; a quarter of the tables are divided by 3
    into Fractions."""
    dim = draw(st.integers(1, 3))
    lo = tuple(draw(st.integers(-3, 3)) for _ in range(dim))
    hi = tuple(a + draw(st.sampled_from(range(8))) for a in lo)
    exps = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim).filter(any),
                         min_size=1, max_size=4, unique=True))
    terms = [(e, draw(st.sampled_from((1, -1, 2, -3, 7)))) for e in exps]
    edge = draw(st.sampled_from((None,) + tuple(_SLOT_EDGES)))
    m = 5 if edge is None else draw(st.sampled_from(_SLOT_EDGES[edge]))
    if edge is not None:
        weight = edge // m - sum(abs(k) for _, k in terms)
        terms.append(((0,) * dim, draw(st.sampled_from((weight, -weight)))))
    n = box_size(lo, hi)
    values = draw(st.lists(st.integers(-m, m), min_size=n, max_size=n))
    values[draw(st.integers(0, n - 1))] = draw(st.sampled_from((m, -m)))
    if draw(st.sampled_from((False, False, False, True))):
        values = [Fraction(v, 3) for v in values]
    return terms, (lo, hi, values)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_row_convolutions())
def test_row_kernel_matches_naive_convolution(case):
    # both paths of _convolve_rows (packed and row by row) against the
    # nested-loop oracle, in every slot width, past the widest, on Fraction
    # tables and on empty output boxes
    terms, (lo, hi, values) = case
    table = SimpleNamespace(dim=len(lo), lo=lo, hi=hi, value_at=dict(
        zip(box_points(lo, hi), values)).__getitem__)
    out_lo, out_hi, expected = naive_convolution(terms, table)
    got = _convolve_rows(terms, values, lo, box_strides(lo, hi),
                         out_lo, out_hi)
    assert got == [expected[x] for x in box_points(out_lo, out_hi)]
    assert set(map(type, got)) <= {type(values[0])}


def test_row_kernel_takes_a_long_sum_of_unit_terms():
    # unit terms are summed by a chain of maps; reading one nests a C call
    # per link, so a chain this long would overflow the stack uncut
    terms = [((0,), 1), ((1,), -1)] * 100_000
    assert _convolve_rows(terms, [5, 2, 7], (0,), (1,), (1,), (2,)) == [
        -300_000, 500_000]


def test_slot_width_is_the_narrowest_that_holds_every_sum():
    for bound, slot in ((2**15 - 1, (2, "h")), (2**15, (4, "i")),
                        (2**31 - 1, (4, "i")), (2**31, (8, "q")),
                        (2**63 - 1, (8, "q")), (2**63, None)):
        assert _slot_format([-1, 0, 1], bound) == slot
        assert _slot_format([bound], 1) == _slot_format([-bound], 1) == slot
    assert _slot_format([Fraction(1, 2), 3], 2) is None


def test_fiber_merge_preserves_evaluation():
    rng = random.Random(43)
    for _ in range(40):
        fibs = []
        raw = []
        for _ in range(rng.randint(1, 4)):
            anchor = (rng.randint(-3, 3), rng.randint(-3, 3))
            direction = rng.choice(((1, 0), (0, 1), (1, 1), (1, -1)))
            vals = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
            if all(v == 0 for v in vals):
                vals[0] = 1
            fib = make_fiber(anchor, direction, vals)
            fibs.append(fib)
            raw.append((anchor, direction, vals))
        merged = FiberSum(2, fibs)
        for x in box_points((-6, -6), (6, 6)):
            total = sum(f.value_at(x) for f in fibs if f is not None)
            assert merged.value_at(x) == total


@pytest.mark.parametrize("dim", [2, 3])
def test_fibersum_value_at_matches_sum_over_fibers(dim):
    rng = random.Random(47 + dim)
    dirs = ([(1, 0), (0, 1), (1, 1), (2, -1)] if dim == 2 else
            [(1, 0, 0), (0, 1, 1), (1, -1, 2), (1, 1, 1)])
    parallel = 0
    for _ in range(10):
        fams = [random_fiber_family(rng, dim, d, max_fibers=5, max_period=4,
                                    anchor_range=3)
                for d in rng.sample(dirs, rng.randint(1, len(dirs)))]
        c = add_views(fams)
        parallel += len(c.fibers) - len({f.direction for f in c.fibers})
        for x in box_points((-5,) * dim, (5,) * dim):
            assert c.value_at(x) == sum(f.value_at(x) for f in c.fibers)
    assert parallel >= 10  # many lookups must pick one of several lines


# Fiber sums for the differential tests of the fiber-sum kernel, as raw
# (anchor, direction, vals) data.  2-d: the rows y = 0 and y = 1 carry
# parallel fibers with periods 2, 3 and 5, so shifts by (0, 1) merge them.
FIBER_SUM_CASES = {
    "1d": (1, [((0,), (1,), [1, -2, 0]), ((5,), (-1,), [3, 3])]),
    "2d": (2, [((0, 0), (1, 0), [1, 2]), ((4, 1), (1, 0), [0, 5, -1]),
               ((0, 2), (1, 0), [1, 1, 1, -3, 2]), ((0, 0), (1, 1), [2]),
               ((1, 0), (2, -1), [1, 0, 4]), ((-3, 4), (0, 1), [0, 0, 7])]),
    "3d": (3, [((0, 0, 0), (1, 0, 0), [1, -1]),
               ((0, 1, 2), (0, 1, 1), [2, 0, 3]),
               ((3, -2, 1), (1, -1, 2), [1]),
               ((1, 1, 1), (1, 0, 0), [0, 4, 0]),
               ((0, 2, 1), (1, 0, 0), [5, 5, 6, 5, 5])]),
}

# per dim: zero and +-1 coefficients aside, unit steps that merge parallel
# lines, negative steps and steps of more than one period
FIBER_POLY_TERMS = {
    1: [{(0,): 1}, {(1,): 1, (0,): -1}, {(-7,): 3, (13,): -1, (2,): 1}],
    2: [{(0, 0): 1}, {(0, 1): 1, (0, 0): 1}, {(0, -1): -1, (0, 1): 1},
        {(-7, 2): 1, (13, -9): -1, (0, 0): 2}, {(1, 1): 4, (-1, 0): -3}],
    3: [{(0, 0, 0): -1}, {(0, 1, -1): 1, (0, 0, 0): 1},
        {(-6, 0, 0): 1, (11, -3, 5): -2, (0, -1, -1): 1}],
}


def _fiber_sum_case(name):
    dim, raw = FIBER_SUM_CASES[name]
    return FiberSum(dim, [make_fiber(*r) for r in raw])


@pytest.mark.parametrize("name", sorted(FIBER_SUM_CASES))
def test_fiber_kernel_apply_poly_matches_make_fiber_reference(name):
    c = _fiber_sum_case(name)
    for terms in FIBER_POLY_TERMS[c.dim]:
        f = LaurentPoly(c.dim, terms)
        out = apply_poly(f, c).fibers
        assert out == reference_apply_poly_fibers(f, c)
        assert_canonical_fibers(out)


@pytest.mark.parametrize("name", sorted(FIBER_SUM_CASES))
def test_fiber_kernel_translate_matches_make_fiber_reference(name):
    c = _fiber_sum_case(name)
    for terms in FIBER_POLY_TERMS[c.dim]:
        for t in terms:
            for s in (t, vsub((0,) * c.dim, t)):
                out = c.convolve([(s, 1)]).fibers
                assert out == reference_translate_fibers(c, s)
                assert_canonical_fibers(out)


@pytest.mark.parametrize("name", sorted(FIBER_SUM_CASES))
def test_fiber_kernel_scaled_and_parallel_part_match_reference(name):
    c = _fiber_sum_case(name)
    for k in (0, 1, -1, 3, -12):
        out = add_views([c], [k]).fibers
        assert out == reference_scaled_fibers(c, k)
        assert_canonical_fibers(out)
    _, raw = FIBER_SUM_CASES[name]
    for direction in {d for _, d, _ in raw} | {(2,) + (0,) * (c.dim - 1)}:
        out = c.parallel_part(direction).fibers
        assert out == reference_parallel_part_fibers(c, direction)
        assert_canonical_fibers(out)


@pytest.mark.parametrize("name", sorted(FIBER_SUM_CASES))
def test_fiber_kernel_add_views_matches_make_fiber_reference(name):
    c = _fiber_sum_case(name)
    step = (1,) + (0,) * (c.dim - 1)
    views = [c, c.convolve([(step, 1)]), apply_poly(
        LaurentPoly(c.dim, FIBER_POLY_TERMS[c.dim][-1]), c)]
    for coeffs in ([1, -1, 0], [0, 2, 1], [1, 1, -1], [-1, 0, 0], [0, 0, 0],
                   [3, -2, 5]):
        out = add_views(views, coeffs).fibers
        assert out == reference_add_views_fibers(views, coeffs)
        assert_canonical_fibers(out)


def test_fiber_kernel_merges_coprime_periods_and_cancels_on_own_line():
    rows = FiberSum(2, [make_fiber((0, 0), (1, 0), [1, 0]),
                        make_fiber((0, 1), (1, 0), [0, 0, 2])])
    up = LaurentPoly(2, {(0, 1): 1, (0, 0): 1})
    merged = apply_poly(up, rows)
    assert merged.fibers == reference_apply_poly_fibers(up, rows)
    assert [f.period for f in merged.fibers] == [2, 6, 3]
    assert_canonical_fibers(merged.fibers)
    # shifts along the fiber's own line by one period cancel exactly, also
    # by negative shifts and several periods
    f = FiberSum(2, [make_fiber((2, 3), (1, 2), [4, -1, 7])])
    for e in ((3, 6), (-3, -6), (9, 18), (-12, -24)):
        g = LaurentPoly(2, {e: 1, (0, 0): -1})
        assert apply_poly(g, f).fibers == () == reference_apply_poly_fibers(g, f)
        assert f.convolve([(e, 1)]) == f
    assert add_views([f, f.convolve([((-6, -12), 1)])], [1, -1]).is_zero()


def test_fiber_kernel_matches_make_fiber_reference_random():
    rng = random.Random(20261018)
    dirs = {1: [(1,)], 2: [(1, 0), (0, 1), (1, 1), (1, -2)],
            3: [(1, 0, 0), (0, 1, -1), (1, 2, 1)]}
    for _ in range(30):
        dim = rng.randint(1, 3)
        views = [add_views([random_fiber_family(rng, dim, d, max_fibers=4,
                                                max_period=6, anchor_range=2)
                            for d in rng.sample(dirs[dim],
                                                rng.randint(1, len(dirs[dim])))])
                 for _ in range(2)]
        c = views[0]
        f = random_poly(rng, dim, exp_range=9, coef_range=2)
        coeffs = [rng.randint(-2, 2) for _ in views]
        t = tuple(rng.randint(-15, 15) for _ in range(dim))
        k = rng.randint(-3, 3)
        w = rng.choice(dirs[dim])
        for out, ref in (
                (apply_poly(f, c), reference_apply_poly_fibers(f, c)),
                (add_views(views, coeffs),
                 reference_add_views_fibers(views, coeffs)),
                (c.convolve([(t, 1)]), reference_translate_fibers(c, t)),
                (add_views([c], [k]), reference_scaled_fibers(c, k)),
                (c.parallel_part(w), reference_parallel_part_fibers(c, w))):
            assert out.fibers == ref
            assert_canonical_fibers(out.fibers)


def test_fiber_sum_merge_to_zero_and_keeps_unmerged_fibers():
    a = make_fiber((0, 1), (1, 1), [1, -2])
    b = make_fiber((2, 3), (1, 1), [-1, 2])  # the same line, negated
    assert FiberSum(2, [a, b]) == FiberSum.zero(2)
    assert FiberSum(2, [a, b]).fibers == ()
    fibers = [make_fiber((0, 0), (1, 0), [1, 2]),
              make_fiber((0, 1), (1, 0), [3]),
              make_fiber((0, 0), (1, 1), [0, 5])]
    s = FiberSum(2, fibers)
    assert len(s.fibers) == 3
    assert all(any(f is g for g in fibers) for f in s.fibers)
    assert all(f is g for f, g in zip(s.parallel_part((1, 0)).fibers,
                                      fibers[:2]))


def test_fiber_canonicalization():
    # non-primitive direction spreads values onto the primitive line
    f = make_fiber((0, 0), (2, 0), [5])
    assert f.direction == (1, 0) and f.vals == (5, 0)
    # negated direction reverses the parameterization
    g = make_fiber((0, 0), (-1, 0), [1, 2, 3])
    h = make_fiber((0, 0), (1, 0), [1, 3, 2])
    assert g == h
    # anchor is reduced to the canonical line point
    k = make_fiber((7, 3), (1, 0), [4, 5])
    assert k.anchor == (0, 3)
    assert k.value_at((7, 3)) == 4
    assert make_fiber((0, 0), (1, 0), [0, 0]) is None


def test_periodic_constructor_validation():
    with pytest.raises(LatticeError):
        PeriodicConfig(2, [(2, 0), (4, 0)], [])  # singular
    with pytest.raises(LatticeError):
        PeriodicConfig(2, [(2, 0), (0, 1)], [1])  # a residue short
    with pytest.raises(LatticeError):
        PeriodicConfig(2, [(1, 0), (0, 1)], [1, 1])  # a value too many


def test_periodic_refuses_a_non_integral_basis():
    # a basis entry int() would change is refused, never truncated
    with pytest.raises(LatticeError, match="non-integer entry 5/2"):
        PeriodicConfig(2, [(Fraction(5, 2), 0), (0, 2)], [1, 2, 3, 4])
    c = PeriodicConfig(2, [(Fraction(4, 2), 0), (0, 2)], [1, 2, 3, 4])
    assert c.basis == ((2, 0), (0, 2))
    assert c == PeriodicConfig(2, [(2, 0), (0, 2)], [1, 2, 3, 4])


def test_fibers_refuse_non_integral_entries():
    half = Fraction(1, 2)
    for make in (lambda: make_fiber((0, 0), (1, 0), [half, 1]),
                 lambda: make_fiber((half, 0), (1, 0), [1]),
                 lambda: make_fiber((0, 0), (half, 0), [1]),
                 lambda: PeriodicFiber((0, 0), (1, 0), [half, 1]),
                 lambda: PeriodicFiber((0, half), (1, 0), [1])):
        with pytest.raises(LatticeError, match="non-integer entry 1/2"):
            make()
    f = make_fiber((Fraction(0), Fraction(2)), (Fraction(1), 0),
                   [Fraction(4, 2), 1])
    assert f == make_fiber((0, 2), (1, 0), [2, 1])
    assert all(type(x) is int for x in f.anchor + f.direction + f.vals)


def test_window_refuses_non_integral_corners():
    with pytest.raises(LatticeError, match="non-integer entry 1/2"):
        WindowConfig((Fraction(1, 2), 0), (1, 1), [3, 1, 2, 3])
    w = WindowConfig((Fraction(2), 0), (3, Fraction(1)), [3, 1, 2, 3])
    assert w.lo == (2, 0) and w.hi == (3, 1)
    assert all(type(x) is int for x in w.lo + w.hi)


def test_generic_operations_refuse_non_integral_arguments():
    # coefficients, corners and directions that int() would change are
    # refused, never truncated; integral Fractions are taken as ints
    checker = PeriodicConfig(2, [(2, 0), (0, 2)], [0, 1, 1, 0])
    half = Fraction(1, 2)
    for call in (lambda: add_views([checker], [half]),
                 lambda: rasterize(checker, (half, 0), (1, 1)),
                 lambda: rasterize(checker, (0, 0), (1, half)),
                 lambda: detect_period_multiple(checker, (3 * half, 0), 4)):
        with pytest.raises(LatticeError, match="non-integer entry"):
            call()
    assert add_views([checker], [Fraction(2)]).values == [0, 2, 2, 0]
    assert rasterize(checker, (Fraction(1), 0), (1, 0)).values == [1]
    assert detect_period_multiple(checker, (Fraction(1), 0), 4) == (2, True)


def test_periodic_refuses_non_integral_values():
    # a value that int() would change is refused at its residue, never
    # truncated; integral Fractions and floats are stored as ints
    with pytest.raises(PreconditionError,
                       match=r"non-integer value 1/2 at \(0,\)"):
        PeriodicConfig(1, [(2,)], [Fraction(1, 2), 1])
    with pytest.raises(PreconditionError,
                       match=r"non-integer value 1\.7 at \(1, 0\)"):
        PeriodicConfig(2, [(2, 0), (0, 1)], [0, 1.7])
    c = PeriodicConfig(1, [(2,)], [Fraction(4, 2), 3.0])
    assert c.values == [2, 3] and set(map(type, c.values)) == {int}
    with pytest.raises(PreconditionError, match=r"at \(1, 2\)"):
        periodic_from_function(2, [(3, 1), (0, 4)],
                               lambda r: Fraction(1, 3) if r == (1, 2)
                               else 0)


def test_fiber_sum_period_multiple_matches_the_translate_loop():
    # w = s * primitive(w) with s in +-1..+-6 and bounds 1..64; some sums
    # hold a fiber off the direction, some are zero
    rng = random.Random(29)
    for _ in range(400):
        dim = rng.choice((2, 3))
        dirs = DIRECTIONS_2D if dim == 2 else DIRECTIONS_3D
        d = rng.choice(dirs)
        c = random_fiber_family(rng, dim, d, max_fibers=4, max_period=12)
        if rng.random() < 0.15:
            c = add_views([c, random_fiber_family(rng, dim, rng.choice(dirs),
                                                  max_fibers=1)])
        if rng.random() < 0.05:
            c = add_views([c, c], [1, -1])
        w = vscale(rng.choice((-1, 1)) * rng.randint(1, 6), d)
        bound = rng.randint(1, 64)
        assert c.period_multiple(w, bound, None) == \
            (reference_period_multiple(c, w, bound), True)


def test_detect_period_multiple():
    assert detect_period_multiple(CHECKER, (1, 0), 8) == (2, True)
    fs = FiberSum(2, [make_fiber((0, 0), (1, 0), [1, 2, 3])])
    assert detect_period_multiple(fs, (1, 0), 8) == (3, True)
    assert detect_period_multiple(fs, (0, 1), 8) == (None, True)
    w = rasterize(CHECKER, (-6, -6), (6, 6))
    k, exact = detect_period_multiple(w, (1, 1), 8)
    assert k == 1 and not exact


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_period_multiple_matches_the_overlap_and_lattice_rules(data):
    # windows and periodic tables share the least annihilating X^{kw} - 1;
    # it answers as the overlap compare and the order of w modulo the full
    # period lattice did, on tables in dims 1-3 (a small value range makes
    # the period lattice larger than the declared one), windows rasterized
    # from them or random, directions with negative and non-primitive
    # entries, and bounds 1-12
    dim = data.draw(st.integers(1, 3), label="dim")
    rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
    c = random_periodic(rng, dim, 12,
                        data.draw(st.sampled_from((0, 1, 4)), label="range"))
    w = data.draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
                  .filter(any).map(tuple), label="w")
    bound = data.draw(st.integers(1, 12), label="bound")
    want = reference_periodic_period_multiple(c, w, bound)
    assert c.period_multiple(w, bound, None) == want
    assert detect_period_multiple(c, w, bound) == want
    lo = tuple(data.draw(st.integers(-4, 2)) for _ in range(dim))
    hi = tuple(a + data.draw(st.integers(0, 9)) for a in lo)
    if data.draw(st.booleans(), label="rasterized"):
        win = rasterize(c, lo, hi)
    else:
        win = window_from_function(lo, hi, lambda x: rng.randint(-1, 1))
    want = reference_window_period_multiple(win, w, bound)
    assert win.period_multiple(w, bound, None) == want
    assert detect_period_multiple(win, w, bound) == want


@pytest.mark.parametrize("kind", ["window", "periodic", "fibersum", "lazy"])
def test_detect_period_multiple_rejects_a_bound_below_one(kind):
    fs = FiberSum(2, [make_fiber((0, 0), (1, 0), [1, 2])])
    c = {"window": rasterize(CHECKER, (-2, -2), (2, 2)), "periodic": CHECKER,
         "fibersum": fs, "lazy": add_views([fs, CHECKER])}[kind]
    for bound in (0, -1):
        with pytest.raises(PreconditionError, match="below 1"):
            detect_period_multiple(c, (1, 0), bound,
                                   window=((-2, -2), (2, 2)))


@pytest.mark.parametrize("kind", ["window", "periodic", "fibersum", "lazy"])
def test_rasterize_and_period_queries_check_dimensions(kind):
    fs = FiberSum(2, [make_fiber((0, 0), (1, 0), [1, 2])])
    c = {"window": rasterize(CHECKER, (-2, -2), (2, 2)), "periodic": CHECKER,
         "fibersum": fs, "lazy": add_views([fs, CHECKER])}[kind]
    window = (-2, -2), (2, 2)
    for lo, hi in [((0,), (1,)), ((0, 0, 0), (1, 1, 1)), ((0, 0), (1, 1, 1))]:
        with pytest.raises(DimensionMismatch):
            rasterize(c, lo, hi)
    for w in [(1,), (1, 0, 0)]:
        with pytest.raises(DimensionMismatch):
            detect_period_multiple(c, w, 8, window=window)
    assert rasterize(c, *window).box == window
    assert detect_period_multiple(c, (1, 0), 8, window=window)[0] == 2


# ---------------------------------------------------------------------------
# values_on_box against value_at at every point

SKEWED = PeriodicConfig(2, [(3, 1), (0, 4)],
                        [7 * r[0] + r[1] for r in box_points((0, 0), (2, 3))])


def _assert_box_matches_points(c, lo, hi):
    got = c.values_on_box(lo, hi)
    want = [c.value_at(x) for x in box_points(lo, hi)]
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]


def _random_box(rng, dim, reach=6, width=5):
    """A box of random corner and widths 1..width, sometimes far out."""
    far = rng.choice((0, 0, 1000, -997))
    lo = tuple(far + rng.randint(-reach, reach) for _ in range(dim))
    return lo, tuple(a + rng.randint(0, width - 1) for a in lo)


def test_window_values_on_box_matches_points_and_errors_outside():
    w = window_from_function((-3, 0, 2), (2, 4, 5),
                             lambda x: 100 * x[0] + 10 * x[1] + x[2])
    rng = random.Random(61)
    for _ in range(40):
        lo = tuple(rng.randint(a, b) for a, b in zip(w.lo, w.hi))
        hi = tuple(rng.randint(a, b) for a, b in zip(lo, w.hi))
        _assert_box_matches_points(w, lo, hi)
    _assert_box_matches_points(w, w.lo, w.hi)
    for lo, hi in [((-4, 0, 2), (0, 1, 3)), ((0, 3, 4), (1, 5, 4)),
                   ((3, 5, 6), (4, 6, 7)), ((-3, 0, 2), (2, 4, 6))]:
        first = next(x for x in box_points(lo, hi) if not w.contains(x))
        with pytest.raises(OutOfDomainError) as point:
            w.value_at(first)
        with pytest.raises(OutOfDomainError) as box:
            w.values_on_box(lo, hi)
        assert str(box.value) == str(point.value)
    assert w.values_on_box((0, 0, 9), (1, 1, 8)) == []  # empty box


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_periodic_values_on_box_matches_points(dim):
    rng = random.Random(67 + dim)
    skewed = 0
    for _ in range(25):
        c = random_periodic(rng, dim, 60)
        skewed += any(r[j] for i, r in enumerate(c.lattice_rows)
                      for j in range(i + 1, dim))
        for _ in range(4):
            _assert_box_matches_points(c, *_random_box(rng, dim, width=9))
    assert dim == 1 or skewed >= 10  # many HNF bases are not diagonal
    _assert_box_matches_points(SKEWED, (-5, -7), (6, 9))
    _assert_box_matches_points(SKEWED, (2, -30), (2, 30))  # one long row
    _assert_box_matches_points(SKEWED, (-30, 5), (30, 5))  # one-point rows


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 3))
def test_flat_periodic_table_matches_residue_dict(seed, dim):
    # every read and whole-table operation of the flat table against the
    # residue-keyed reference, one hnf_reduce per point
    rng = random.Random(seed)
    c = random_periodic(rng, dim, 30)
    ref = ResidueDict(c)
    residues = list(ref.table)
    for _ in range(3):
        lo, hi = _random_box(rng, dim, width=7)
        assert c.value_at(lo) == ref(lo)
        assert c.values_on_box(lo, hi) == [ref(x) for x in box_points(lo, hi)]
    segments = [(_random_box(rng, dim)[0],
                 tuple(rng.randint(-3, 3) for _ in range(dim)),
                 rng.randint(1, 12)) for _ in range(4)]
    assert_segments_match_points(c, segments, ref)

    t = tuple(rng.randint(-9, 9) for _ in range(dim))
    moved = c.convolve([(t, 1)])
    assert moved.lattice_rows == c.lattice_rows
    assert ResidueDict(moved).table == {r: ref(vsub(r, t)) for r in residues}

    f = random_poly(rng, dim, exp_range=3)
    if not f.is_zero():
        fc = apply_poly(f, c)
        assert fc.lattice_rows == c.lattice_rows
        assert ResidueDict(fc).table == {
            r: sum(k * ref(vsub(r, e)) for e, k in f.terms())
            for r in residues}

    views = [c] + [random_periodic(rng, dim, 12)
                   for _ in range(rng.randint(1, 2))]
    coeffs = [rng.randint(-3, 3) for _ in views]
    total = add_views(views, coeffs)
    refs = [ResidueDict(v) for v in views]
    assert all(in_lattice(row, v.lattice_rows)
               for v in views for row in total.lattice_rows)
    assert ResidueDict(total).table == {
        r: sum(k * w(r) for k, w in zip(coeffs, refs))
        for r in ResidueDict(total).table}

    # brute force: t is a period when every residue agrees with its shift
    rows = period_lattice(c)
    for t in residues:
        assert in_lattice(t, rows) == all(ref(vadd(r, t)) == v
                                          for r, v in ref.table.items())


def test_fiber_sum_values_on_box_matches_points():
    misses = FiberSum(2, [make_fiber((0, 9), (1, 0), [1, 2]),
                          make_fiber((20, 0), (0, 1), [3]),
                          make_fiber((0, 8), (1, -1), [1, -1])])
    assert misses.values_on_box((-3, -3), (3, 3)) == [0] * 49
    # (4, 4) alone touches the box corner; axis-parallel fibers run along
    # whole rows and columns
    corner = FiberSum(2, [make_fiber((4, 4), (1, 1), [5, 6, 7]),
                          make_fiber((0, 8), (1, -1), [2, 3]),
                          make_fiber((0, 4), (1, 0), [1, -2, 4]),
                          make_fiber((-3, 0), (0, 1), [9, 8])])
    _assert_box_matches_points(corner, (0, 0), (4, 4))
    _assert_box_matches_points(corner, (-3, -3), (4, 4))
    rng = random.Random(71)
    for dim, dirs in ((1, [(1,)]),
                      (2, DIRECTIONS_2D),
                      (3, [(1, 0, 0), (0, 0, 1), (1, -1, 2), (2, 1, -1)])):
        for _ in range(12):
            c = add_views([random_fiber_family(rng, dim, d, anchor_range=4)
                           for d in rng.sample(dirs, min(3, len(dirs)))])
            for _ in range(5):
                # width-1 boxes give flat strides of 0 along some fibers
                _assert_box_matches_points(
                    c, *_random_box(rng, dim, reach=4,
                                    width=rng.choice((1, 2, 7))))
            lo = (-1,) * dim
            _assert_box_matches_points(c, lo, (0,) + lo[1:])


def _halves(x):
    """x0 computed as Fraction(2 * x0 + 1, 2) - 1/2: integral Fractions."""
    return Fraction(2 * x[0] + 1, 2) - Fraction(1, 2)


def test_lazy_values_on_box_matches_points():
    fs = add_views([FiberSum(2, [make_fiber((0, 1), (1, 1), [1, 2, 3])]),
                    FiberSum(2, [make_fiber((2, 0), (0, 1), [4, -1])])])
    lazy = add_views([fs, CHECKER, SKEWED], [2, -1, 3])
    assert isinstance(lazy, LazyConfig)
    for lo, hi in [((-4, -3), (5, 2)), ((7, -2), (7, 6)),
                   ((-500, 3), (-497, 9))]:
        _assert_box_matches_points(lazy, lo, hi)
    # the point fallback: an evaluator without a box method
    bump = FunctionView(2, lambda x: int(x == (1, 1)))
    _assert_box_matches_points(add_views([bump, lazy]), (-2, -2), (3, 3))
    _assert_box_matches_points(apply_poly(difference_poly((1, 2)), bump),
                               (-2, -2), (3, 3))
    # values come back as exact arithmetic makes them, integral Fractions
    # too; only rasterize turns them into ints
    halves = FunctionView(2, _halves)
    assert all(type(v) is Fraction
               for v in halves.values_on_box((-2, 0), (2, 1)))
    _assert_box_matches_points(halves, (-2, 0), (2, 1))
    _assert_box_matches_points(add_views([halves, CHECKER], [3, -2]),
                               (-2, 0), (2, 1))
    assert rasterize(halves, (-2, 0), (2, 1)).values == [
        x[0] for x in box_points((-2, 0), (2, 1))]


# ---------------------------------------------------------------------------
# values_on_line and values_on_segments against value_at at every point

def _random_segment(rng, dim, reach=6, span=3, length=12):
    """A segment of random start, step (zero and reversed ones too) and
    length 0..length, sometimes far out."""
    far = rng.choice((0, 0, 1000, -997))
    q = tuple(far + rng.randint(-reach, reach) for _ in range(dim))
    step = tuple(rng.randint(-span, span) for _ in range(dim))
    return q, step, rng.randint(0, length)


def test_window_lines_match_points_and_error_outside():
    w = window_from_function((-3, 0, 2), (2, 4, 5),
                             lambda x: 100 * x[0] + 10 * x[1] + x[2])
    rng = random.Random(73)
    segments = []
    while len(segments) < 60:
        q = tuple(rng.randint(a, b) for a, b in zip(w.lo, w.hi))
        seg = q, tuple(rng.randint(-2, 2) for _ in q), rng.randint(0, 6)
        if all(map(w.contains, segment_points(*seg))):
            segments.append(seg)
    assert sum(any(s < 0 for s in step) and count > 1
               for _, step, count in segments) >= 10  # reversed steps
    assert_segments_match_points(w, segments)
    for seg in [((2, 4, 5), (1, 0, 0), 2), ((-3, 0, 2), (0, -1, 1), 3),
                ((0, 2, 3), (1, 1, 1), 5), ((5, 0, 2), (-1, 0, 0), 4)]:
        first = next(x for x in segment_points(*seg) if not w.contains(x))
        with pytest.raises(OutOfDomainError) as point:
            w.value_at(first)
        with pytest.raises(OutOfDomainError) as line:
            w.values_on_line(*seg)
        assert str(line.value) == str(point.value)
        with pytest.raises(OutOfDomainError) as batch:
            w.values_on_segments([((0, 0, 2), (0, 0, 1), 4), seg])
        assert str(batch.value) == str(point.value)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_periodic_lines_match_points(dim):
    rng = random.Random(79 + dim)
    skewed = 0
    for _ in range(25):
        c = random_periodic(rng, dim, 60)
        skewed += any(r[j] for i, r in enumerate(c.lattice_rows)
                      for j in range(i + 1, dim))
        # repeated steps walk rows whose moves earlier segments kept
        assert_segments_match_points(
            c, [_random_segment(rng, dim, span=2) for _ in range(12)])
    assert dim == 1 or skewed >= 10  # many HNF bases are not diagonal
    if dim == 2:
        assert_segments_match_points(SKEWED, [
            ((-5, 7), (1, 0), 40), ((-5, 7), (-1, 0), 40),
            ((2, -30), (0, 1), 61), ((3, 3), (2, -1), 25),
            ((3, 3), (0, 0), 3), ((-400, 9), (-3, 4), 1)])


def test_fiber_sum_lines_match_points():
    fs = FiberSum(2, [make_fiber((0, 1), (1, 1), [1, 2, 3]),
                      make_fiber((0, 8), (1, -1), [2, 3]),
                      make_fiber((0, 4), (1, 0), [1, -2, 4]),
                      make_fiber((-3, 0), (0, 1), [9, 8])])
    assert_segments_match_points(fs, [
        # along a fiber, against it and with a stride of its direction
        ((4, 5), (1, 1), 9), ((4, 5), (-1, -1), 9), ((4, 5), (2, 2), 9),
        ((-5, 4), (1, 0), 12), ((7, 4), (-3, 0), 5), ((-3, 2), (0, 5), 4),
        # across every fiber, and crossing some only beyond the segment
        ((-6, -6), (1, 2), 10), ((-6, -6), (1, 2), 2), ((9, 9), (-1, -3), 7),
        # beside the fibers' lines: nothing
        ((0, 0), (1, 1), 6), ((0, 5), (1, 0), 6), ((0, 5), (0, 0), 2)])
    assert fs.values_on_line((0, 0), (1, 1), 6) == [0] * 6
    rng = random.Random(83)
    for dim, dirs in ((1, [(1,)]),
                      (2, DIRECTIONS_2D),
                      (3, [(1, 0, 0), (0, 0, 1), (1, -1, 2), (2, 1, -1)])):
        for _ in range(12):
            c = add_views([random_fiber_family(rng, dim, d, anchor_range=4)
                           for d in rng.sample(dirs, min(3, len(dirs)))])
            segments = [_random_segment(rng, dim, reach=4, span=2)
                        for _ in range(6)]
            # and along some fibers' own lines
            segments += [(f.anchor, tuple(k * a for a in f.direction), 7)
                         for f, k in zip(c.fibers, (1, -1, 2))]
            assert_segments_match_points(c, segments)


def test_lazy_lines_match_points():
    fs = add_views([FiberSum(2, [make_fiber((0, 1), (1, 1), [1, 2, 3])]),
                    FiberSum(2, [make_fiber((2, 0), (0, 1), [4, -1])])])
    lazy = add_views([fs, CHECKER, SKEWED], [2, -1, 3])
    assert isinstance(lazy, LazyConfig)
    rng = random.Random(89)
    segments = [_random_segment(rng, 2) for _ in range(20)]
    assert_segments_match_points(lazy, segments)
    # the point fallback: an evaluator without a segment method
    bump = FunctionView(2, lambda x: int(x == (1, 1)))
    assert_segments_match_points(add_views([bump, lazy]), segments)
    assert_segments_match_points(apply_poly(difference_poly((1, 2)), bump),
                               segments)
    # integral Fractions stay Fractions, also when a sum adds them up
    halves = FunctionView(2, _halves)
    assert all(type(v) is Fraction
               for vals in halves.values_on_segments(segments) for v in vals)
    assert_segments_match_points(halves, segments)
    assert_segments_match_points(add_views([halves, CHECKER], [3, -2]),
                                 segments)
