import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from perdec import sparse
from perdec.config import (FiberSum, PeriodicConfig, WindowConfig, add_views,
                           box_points, box_size, is_annihilated,
                           make_fiber, rasterize)
from perdec.decompose import Bounds
from perdec.errors import (DimensionMismatch, InconclusiveError,
                           LatticeError, PreconditionError, VerificationError)
from perdec.laurent import (LaurentPoly, difference_poly,
                            non_parallel_directions)
from perdec.lattice import primitive, vscale
from perdec.sparse import (check_sparseness, fiber_closed_form_constant,
                           fiber_extract, sparse_decompose, sparse_full,
                           sparse_split2, stabilized_translate_limit)

from helpers import (DIRECTIONS_2D, DIRECTIONS_3D, THREE_DIRECTIONS_2D,
                     THREE_DIRECTIONS_3D, THREE_FACTORS_2D, THREE_FACTORS_3D,
                     periodic_from_function, random_fiber_family,
                     random_hnf_basis, reference_sparse_decompose,
                     reference_sparseness, reference_translate_limit,
                     window_from_function)

BOUNDS = Bounds()

HORIZ = FiberSum(2, [make_fiber((0, 0), (1, 0), [3, 5])])
VERT = FiberSum(2, [make_fiber((0, 0), (0, 1), [1, 1, 0])])


# ---------------------------------------------------------------------------
# sparseness

def test_zero_configuration_certifies_for_any_constant():
    rep = check_sparseness(FiberSum.zero(2), 1, 5)
    assert rep.ok and rep.exact and rep.violation is None


def test_single_fiber_certifies_with_three():
    rep = check_sparseness(HORIZ, 3, 5)
    assert rep.ok and rep.exact
    for m, count in rep.checked:
        assert count <= 2 * m + 1


def test_constant_plane_fails_with_explicit_witness():
    rep = check_sparseness(PeriodicConfig.constant(2, 1), 3, 6)
    assert not rep.ok
    m, t = rep.violation
    count = sum(1 for x in box_points(tuple(v - m for v in t),
                                      tuple(v + m for v in t)))
    assert count == (2 * m + 1) ** 2 > 3 * m


def test_sum_closure_bound():
    # adding fiber sums never needs more than the summed constants
    rng = random.Random(3)
    for _ in range(30):
        a = random_fiber_family(rng, 2, rng.choice(DIRECTIONS_2D),
                                max_fibers=3, max_period=4, anchor_range=3)
        b = random_fiber_family(rng, 2, rng.choice(DIRECTIONS_2D),
                                max_fibers=3, max_period=4, anchor_range=3)
        s = add_views([a, b])
        assert fiber_closed_form_constant(s) <= \
            fiber_closed_form_constant(a) + fiber_closed_form_constant(b)
        assert check_sparseness(
            s, fiber_closed_form_constant(a) + fiber_closed_form_constant(b)
            or 1, 3).ok


def test_window_sparseness_evidence():
    w = rasterize(HORIZ, (-6, -6), (6, 6))
    rep = check_sparseness(w, 3, 3)
    assert rep.ok and not rep.exact


# the summed-area counter against the point-by-point reference scan: whole
# reports (counts, first violation, stop point and exact label) must agree

def _same_report(c, a, m_max):
    rep = check_sparseness(c, a, m_max)
    assert rep == reference_sparseness(c, a, m_max)
    return rep


def _window(lo, hi, rng, density):
    return window_from_function(
        lo, hi, lambda x: rng.randint(-3, 3) if rng.random() < density else 0)


def _grid_window(lo, hi, rng):
    """Nonzero only where every coordinate is a multiple of 4: sparse."""
    return window_from_function(
        lo, hi, lambda x: rng.choice((-2, 1, 5)) * all(v % 4 == 0 for v in x))


@pytest.mark.parametrize("lo,hi,a,m_max,ok", [
    ((-5,), (6,), 1, 9, True),          # m_max past half the side
    ((0,), (0,), 1, 3, True),           # no cube fits
    ((-3, -4), (3, 4), 2, 6, True),     # past half of both sides
    ((-3, -4), (3, 4), 1, 2, False),
    ((0, 0, 0), (4, 5, 6), 4, 3, True),
    ((0, 0, 0), (4, 5, 6), 1, 3, False),
])
def test_window_counter_matches_reference(lo, hi, a, m_max, ok):
    rng = random.Random(sum(hi) - sum(lo) + a)
    w = _grid_window(lo, hi, rng) if ok else _window(lo, hi, rng, 0.6)
    rep = _same_report(w, a, m_max)
    assert rep.ok == ok and not rep.exact


def test_window_violation_on_the_low_edge():
    # the only dense cube touches the window's low corner, where the
    # counter's lower corners fall below the box
    w = window_from_function((0, 0), (8, 8),
                             lambda x: int(x[0] <= 2 and x[1] <= 2))
    rep = _same_report(w, 2, 3)
    assert rep.violation == (1, (1, 1))


@pytest.mark.parametrize("rows,hot,a,m_max,ok", [
    ([(5,)], [(2,)], 1, 7, True),       # box rebuilt at m = 1, 2, 4, 7
    ([(3,)], [(0,), (1,)], 1, 4, False),
    ([(3, 1), (0, 4)], [(0, 0)], 3, 4, True),
    ([(3, 1), (0, 4)], [(0, 0), (1, 2), (2, 3)], 2, 4, False),
    ([(2, 1, 1), (0, 3, 2), (0, 0, 2)], [(1, 0, 1)], 9, 2, True),
    ([(2, 1, 1), (0, 3, 2), (0, 0, 2)], [(0, 0, 0), (1, 2, 1)], 5, 3, False),
])
def test_periodic_counter_matches_reference_on_sheared_lattices(
        rows, hot, a, m_max, ok):
    c = periodic_from_function(len(rows), rows,
                               lambda r: 7 if r in hot else 0)
    rep = _same_report(c, a, m_max)
    assert rep.ok == ok and rep.exact == (not ok)


def test_early_periodic_violation_skips_the_box_of_m_max(monkeypatch):
    # the periodic scan stops at its first violation, so the counter's box
    # grows with the cube size instead of starting at the size of m_max
    sizes = []

    def bounded_rasterize(c, lo, hi):
        sizes.append(box_size(lo, hi))
        assert sizes[-1] <= 100, "rasterized the box of m_max"
        return rasterize(c, lo, hi)

    monkeypatch.setattr(sparse, "rasterize", bounded_rasterize)
    rep = check_sparseness(PeriodicConfig.constant(2, 1), 3, 10 ** 6)
    assert rep.violation == (1, (0, 0)) and sizes == [9]


def test_crossing_fibers_cancel_at_their_common_point():
    for fibers in ([make_fiber((0, 0), (1, 0), [1]),
                    make_fiber((0, 0), (0, 1), [-1])],
                   [make_fiber((0, 0), (1, 1), [2, 0]),
                    make_fiber((0, 0), (1, -1), [-2, 1, 1])],
                   [make_fiber((1, 0, 0), (0, 1, 0), [1, 1, 2]),
                    make_fiber((1, 0, 0), (0, 0, 1), [-1, 3])]):
        c = FiberSum(len(fibers[0].anchor), fibers)
        assert c.value_at(fibers[0].anchor) == 0
        assert not _same_report(c, 1, 3).ok
        rep = _same_report(c, fiber_closed_form_constant(c), 3)
        assert rep.ok and rep.exact


def test_fiber_counter_matches_reference_with_violation():
    c = FiberSum(1, [make_fiber((0,), (1,), [1, 0, 2])])
    assert not _same_report(c, 1, 6).ok
    rep = _same_report(c, 3, 6)
    assert rep.ok and rep.exact
    dense = FiberSum(2, [make_fiber((0, j), (1, 0), [1]) for j in range(3)])
    rep = _same_report(dense, 2, 3)
    assert not rep.ok and rep.violation == (1, (-4, -1))
    assert len(rep.checked) == 3  # fiber scans keep going past a violation


def test_zero_inputs_match_reference():
    for c in (FiberSum.zero(1), FiberSum.zero(3),
              periodic_from_function(2, [(2, 1), (0, 3)], lambda r: 0),
              WindowConfig((-2, -2, -2), (2, 2, 2), [0] * 125)):
        rep = _same_report(c, 1, 3)
        assert rep.ok and rep.violation is None


def test_random_windows_match_reference():
    rng = random.Random(1984)
    for _ in range(30):
        dim = rng.randint(1, 3)
        lo = tuple(rng.randint(-4, 1) for _ in range(dim))
        hi = tuple(v + rng.randint(0, 8 - 2 * dim) for v in lo)
        _same_report(_window(lo, hi, rng, rng.random()),
                     rng.randint(1, 4), rng.randint(1, 5))


def test_random_periodic_match_reference():
    rng = random.Random(1985)
    for _ in range(30):
        dim = rng.randint(1, 3)
        rows = random_hnf_basis(rng, dim, 12)
        density = rng.random() / 2
        c = periodic_from_function(
            dim, rows,
            lambda r: rng.randint(1, 3) if rng.random() < density else 0)
        _same_report(c, rng.randint(1, 3 ** dim), rng.randint(1, 4))


def test_random_fiber_sums_match_reference():
    rng = random.Random(1986)
    for _ in range(12):
        dirs = rng.sample(DIRECTIONS_2D, 2)
        c = add_views([random_fiber_family(rng, 2, d, max_fibers=3,
                                           max_period=4, anchor_range=4)
                       for d in dirs], [1, rng.choice((-1, 1))])
        _same_report(c, rng.randint(1, 3 * len(c.fibers) + 1),
                     rng.randint(1, 3))


def _random_sparseness_case(rng, kind, dim):
    """(view, a, m_max): a window, a sheared periodic view or a fiber sum."""
    if kind == "window":
        lo = tuple(rng.randint(-4, 1) for _ in range(dim))
        hi = tuple(v + rng.randint(0, 10 - 2 * dim) for v in lo)
        return (_window(lo, hi, rng, rng.random()), rng.randint(1, 4),
                rng.randint(1, 5))
    if kind == "periodic":
        density = rng.random() / 2
        c = periodic_from_function(
            dim, random_hnf_basis(rng, dim, 16),
            lambda r: rng.randint(1, 3) if rng.random() < density else 0)
        return c, rng.randint(1, 3 ** dim), rng.randint(1, 4)
    dirs = rng.sample(DIRECTIONS_2D if dim == 2 else DIRECTIONS_3D,
                      rng.randint(1, 2))
    c = add_views([random_fiber_family(rng, dim, d, max_fibers=3,
                                       max_period=3, anchor_range=2)
                   for d in dirs])
    return (c, rng.randint(1, 3 * len(c.fibers) + 1),
            rng.randint(1, 3 if dim == 2 else 2))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32),
       st.sampled_from([("window", 1), ("window", 2), ("window", 3),
                        ("periodic", 1), ("periodic", 2), ("periodic", 3),
                        ("fibers", 2), ("fibers", 3)]))
def test_row_reads_match_reference_reports(seed, case):
    # whole reports: per-size maxima, first violation in box order, the
    # count that closes a stopped scan, and the exact label
    _same_report(*_random_sparseness_case(random.Random(seed), *case))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 3))
def test_cube_rows_match_point_counts(seed, dim):
    # every count of a row, not only the maxima that reports keep
    rng = random.Random(seed)
    lo = tuple(rng.randint(-3, 0) for _ in range(dim))
    hi = tuple(v + rng.randint(2, 9 - 2 * dim) for v in lo)
    w = _window(lo, hi, rng, rng.random())
    m = rng.randint(1, min(b - a for a, b in zip(lo, hi)) // 2)
    head = tuple(rng.randint(a + m, b - m) for a, b in zip(lo[:-1], hi[:-1]))
    start = rng.randint(lo[-1] + m, hi[-1] - m)
    n = rng.randint(1, hi[-1] - m - start + 1)
    want = [sum(1 for x in box_points(tuple(v - m for v in t),
                                      tuple(v + m for v in t))
                if w.value_at(x)) for t in
            (head + (start + i,) for i in range(n))]
    assert sparse._cube_counter(w)(m)(head + (start,), n) == want


def _points_window(lo, hi, points):
    return window_from_function(lo, hi, lambda x: int(x in points))


@pytest.mark.parametrize("points,a,violation,checked", [
    # the violation is the last translate of its row (t = (1, 5))
    ({(0, 5), (0, 6)}, 1, (1, (1, 5)), ((1, 2),)),
    # two violating translates in one row: the first is reported with its
    # own count, not the row's larger one (3 at t = (1, 5))
    ({(1, 2), (1, 3), (1, 5), (1, 6), (0, 6)}, 1, (1, (1, 2)), ((1, 2),)),
    # row x = 1 holds the most points, at the budget; the first violation
    # is in the later row x = 5
    ({(0, y) for y in range(7)} | {(6, 2), (6, 3), (6, 4), (5, 3)}, 3,
     (1, (5, 3)), ((1, 4),)),
])
def test_row_violations_are_reported_per_translate(points, a, violation,
                                                   checked):
    rep = _same_report(_points_window((0, 0), (6, 6), points), a, 3)
    assert rep.violation == violation and rep.checked == checked


def test_window_too_narrow_for_any_cube():
    w = _points_window((0, 0), (6, 1), {(3, 0), (3, 1)})
    rep = _same_report(w, 1, 3)
    assert rep.ok and rep.checked == () and rep.violation is None


# ---------------------------------------------------------------------------
# fiber extraction

def test_extract_fixpoint_on_fiber_sum():
    fs = FiberSum(2, [make_fiber((0, 0), (1, 0), [1, 2]),
                      make_fiber((0, 3), (1, 0), [5])])
    assert fiber_extract(fs, (2, 0), 8) == fs


def test_extract_rejects_nonparallel_fiber():
    with pytest.raises(PreconditionError):
        fiber_extract(add_views([HORIZ, VERT]), (1, 0), 8)


def test_extract_rejects_a_direction_of_another_dimension():
    w = rasterize(HORIZ, (-3, -3), (3, 3))
    for c in (HORIZ, w, PeriodicConfig.constant(2, 1)):
        for v in ((1,), (0, 1, 5)):
            with pytest.raises(DimensionMismatch):
                fiber_extract(c, v, 8)


def test_extract_period_bound():
    fs = FiberSum(2, [make_fiber((0, 0), (1, 0), [1, 2, 3, 4, 5])])
    with pytest.raises(InconclusiveError):
        fiber_extract(fs, (1, 0), 4)


def test_extract_periodic_cases():
    zero = periodic_from_function(2, [(2, 0), (0, 2)], lambda r: 0)
    assert fiber_extract(zero, (1, 0), 8).is_zero()
    one_d = periodic_from_function(1, [(3,)], lambda r: r[0])
    fs = fiber_extract(one_d, (1,), 8)
    assert [fs.value_at((j,)) for j in range(-3, 6)] == \
        [(j % 3) for j in range(-3, 6)]
    with pytest.raises(PreconditionError):
        fiber_extract(PeriodicConfig.constant(2, 1), (1, 0), 8)


def test_extract_from_window_matches_values():
    fs = FiberSum(2, [make_fiber((0, 1), (1, 0), [1, 0, 2]),
                      make_fiber((0, -2), (1, 0), [4])])
    w = rasterize(fs, (-7, -7), (7, 7))
    got = fiber_extract(w, (1, 0), 8)
    for x in box_points((-7, -7), (7, 7)):
        assert got.value_at(x) == w.value_at(x)


@pytest.mark.parametrize("dim,direction,raw", [
    (2, (0, 1), [((1, 0), [1, 0, 2]), ((-2, 0), [4])]),
    (2, (1, -2), [((0, 0), [3, -1]), ((1, 0), [0, 2, 2])]),
    (3, (0, 1, 1), [((1, 0, 0), [1, 2]), ((0, 0, 1), [5]),
                    ((2, -1, 3), [0, 0, -4])]),
])
def test_extract_from_window_recovers_parallel_fibers(dim, direction, raw):
    fs = FiberSum(dim, [make_fiber(a, direction, v) for a, v in raw])
    w = rasterize(fs, (-6,) * dim, (6,) * dim)
    assert fiber_extract(w, direction, 8) == fs


def test_extract_window_evidence_is_minimal_consistent():
    fs = FiberSum(2, [make_fiber((0, 0), (1, 0), [1, 2, 3, 4, 5, 6])])
    w = rasterize(fs, (0, 0), (3, 0))  # four samples of a 6-periodic line
    got = fiber_extract(w, (1, 0), 12)
    # the evidence cannot distinguish period 6; the minimal consistent
    # period 4 reproduces the window but extrapolates differently
    assert got.fibers[0].period == 4
    for x in box_points((0, 0), (3, 0)):
        assert got.value_at(x) == w.value_at(x)


def test_extract_window_line_beyond_period_bound():
    w = WindowConfig((0, 0), (8, 0), list(range(1, 10)))  # aperiodic evidence
    with pytest.raises(InconclusiveError,
                       match=r"^no period <= 3 fits the in-window evidence "
                             r"of the line at \(0, 0\)$"):
        fiber_extract(w, (1, 0), 3)


# ---------------------------------------------------------------------------
# translate limits

def test_limit_periodic_step_in_lattice_is_constant_sequence():
    cb = PeriodicConfig(2, [(2, 0), (0, 2)], [0, 1, 1, 0])
    lim = stabilized_translate_limit(cb, (2, 0), ((-4, -4), (4, 4)), 16, 3)
    assert lim == rasterize(cb, (-4, -4), (4, 4))


def test_limit_drops_transverse_fiber():
    c = add_views([HORIZ, VERT])
    lim = stabilized_translate_limit(c, (2, 0), ((-5, -5), (5, 5)), 64, 4)
    assert lim == rasterize(HORIZ, (-5, -5), (5, 5))


def test_limit_rejects_zero_step():
    with pytest.raises(PreconditionError):
        stabilized_translate_limit(HORIZ, (0, 0), ((-2, -2), (2, 2)), 8, 2)


def test_limit_refuses_non_integral_steps_and_corners():
    cb = PeriodicConfig(2, [(2, 0), (0, 2)], [0, 1, 1, 0])
    half = Fraction(1, 2)
    for step, window in (((half, 0), ((-4, -4), (4, 4))),
                         ((2, 0), ((-4, half), (4, 4)))):
        with pytest.raises(LatticeError, match="non-integer entry 1/2"):
            stabilized_translate_limit(cb, step, window, 16, 3)
    lim = stabilized_translate_limit(cb, (Fraction(2), 0),
                                     ((-4, Fraction(-4)), (4, 4)), 16, 3)
    assert lim == rasterize(cb, (-4, -4), (4, 4))


def test_limit_cycling_fiber_is_inconclusive():
    with pytest.raises(InconclusiveError):
        stabilized_translate_limit(HORIZ, (1, 0), ((-3, -3), (3, 3)), 32, 3)


def test_fiber_limit_needs_transverse_fibers_to_leave_the_window():
    # fiber sums stabilize like every other view: within k_max = 2 the
    # vertical fiber is still inside the window
    with pytest.raises(InconclusiveError,
                       match=r"^no stabilization within 2 translates$"):
        stabilized_translate_limit(add_views([HORIZ, VERT]), (2, 0),
                                   ((-5, -5), (5, 5)), 2, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from((2, 3)))
def test_fiber_limit_matches_subsequence_limit(seed, dim):
    # parallel periods divide the step, so the parallel part is invariant
    # and every transverse fiber leaves the window for good.  More than F
    # equal windows in a row (F transverse fibers) leave no transverse
    # point inside: each would need a fiber per translate, along one line
    # parallel to the step, and each fiber meets that line at most once.
    rng = random.Random(seed)
    dirs = rng.sample(DIRECTIONS_2D if dim == 2 else DIRECTIONS_3D, 3)
    fams = [random_fiber_family(rng, dim, d, max_fibers=3, max_period=4,
                                anchor_range=3) for d in dirs]
    c = add_views(fams[:rng.randint(1, 3)])
    scale = lcm(*(f.period for f in fams[0].fibers)) * rng.randint(1, 2)
    step = vscale(rng.choice((1, -1)) * scale, dirs[0])
    window = ((-3,) * dim, (3,) * dim)
    got = stabilized_translate_limit(c, step, window, 200,
                                     len(c.fibers) + 1)
    assert got == rasterize(c.parallel_part(step), *window)


def test_subsequence_limit_is_parallel_part():
    c = add_views([HORIZ, VERT])
    assert c.parallel_part((3, 0)) == HORIZ
    assert c.parallel_part((0, -2)) == VERT
    assert c.parallel_part((1, 1)).is_zero()


def test_limit_on_a_window_that_runs_out_is_inconclusive():
    # the translates k = 0..4 of the 5-wide check window by (-2, 0) read
    # [-2 + 2k, 2 + 2k] of the 21-wide window; k = 5 leaves it before
    # patience 6 is reached, and patience 5 is reached at k = 4
    w = rasterize(HORIZ, (-10, -2), (10, 2))
    with pytest.raises(InconclusiveError,
                       match=r"^no stabilization within the 5 translates "
                             r"that the domain of WindowConfig") as info:
        stabilized_translate_limit(w, (-2, 0), ((-2, -2), (2, 2)), 64, 6)
    assert info.value.bound == 5
    assert stabilized_translate_limit(w, (-2, 0), ((-2, -2), (2, 2)), 64, 5
                                      ) == rasterize(HORIZ, (-2, -2), (2, 2))


def _limit_outcome(c, step, window, k_max, patience):
    try:
        return "limit", stabilized_translate_limit(c, step, window, k_max,
                                                   patience)
    except InconclusiveError as exc:
        return "inconclusive", exc.bound


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from((1, 2, 3)),
       st.booleans())
def test_box_read_limit_matches_convolve_then_rasterize(seed, dim, window):
    rng = random.Random(seed)
    dirs = {1: [(1,)], 2: DIRECTIONS_2D, 3: DIRECTIONS_3D}[dim]
    c = add_views([random_fiber_family(rng, dim, d, max_fibers=2,
                                       max_period=3, anchor_range=3)
                   for d in rng.sample(dirs, min(2, len(dirs)))])
    if window:  # the fiber sum on a random box, or random values on it
        lo = tuple(rng.randint(-9, -2) for _ in range(dim))
        hi = tuple(rng.randint(2, 9) for _ in range(dim))
        c = (rasterize(c, lo, hi) if rng.random() < 0.7 else
             WindowConfig(lo, hi, [rng.randint(0, 1)
                                   for _ in box_points(lo, hi)]))
    step = tuple(rng.randint(-3, 3) for _ in range(dim))
    if not any(step):
        step = (1,) + step[1:]
    check = (tuple(rng.randint(-2, 0) for _ in range(dim)),
             tuple(rng.randint(0, 2) for _ in range(dim)))
    k_max, patience = rng.randint(1, 12), rng.randint(1, 4)
    got = _limit_outcome(c, step, check, k_max, patience)
    assert got == reference_translate_limit(c, step, check, k_max, patience)


def test_limit_as_orbit_stays_sparse():
    # surrogate for: limits of sparse configurations are sparse
    c = add_views([HORIZ, VERT])
    a = fiber_closed_form_constant(c)
    lim = stabilized_translate_limit(c, (2, 0), ((-5, -5), (5, 5)), 64, 4)
    rep = check_sparseness(lim, a, 3)
    assert rep.ok


# ---------------------------------------------------------------------------
# two-factor split

def test_split_recovers_both_families():
    c = add_views([HORIZ, VERT])
    c1, c2 = sparse_split2(c, difference_poly((2, 0)),
                           difference_poly((0, 3)), BOUNDS)
    assert c1 == HORIZ and c2 == VERT


def test_split_one_sided():
    c1, c2 = sparse_split2(HORIZ, difference_poly((2, 0)),
                           difference_poly((0, 3)), BOUNDS)
    assert c1 == HORIZ and c2.is_zero()


def test_split_crossing_with_overlap():
    a = FiberSum(2, [make_fiber((0, 0), (1, 0), [2, 1])])
    b = FiberSum(2, [make_fiber((0, 0), (0, 1), [3, 0, 1])])
    c = add_views([a, b])
    assert c.value_at((0, 0)) == 5  # overlapping support point
    c1, c2 = sparse_split2(c, difference_poly((2, 0)),
                           difference_poly((0, 3)), BOUNDS)
    assert c1 == a and c2 == b
    assert c1.value_at((0, 0)) + c2.value_at((0, 0)) == 5


def test_split_window_inputs():
    c = add_views([HORIZ, VERT])
    w = rasterize(c, (-24, -24), (24, 24))
    bounds = Bounds(check_radius=4, k_max=8, patience=2)
    c1, c2 = sparse_split2(w, difference_poly((2, 0)),
                           difference_poly((0, 3)), bounds)
    lo, hi = bounds.check_window(2)
    for x in box_points(lo, hi):
        assert c1.value_at(x) + c2.value_at(x) == c.value_at(x)


def test_split_detects_broken_premises():
    c = add_views([HORIZ, VERT])
    with pytest.raises(PreconditionError):
        sparse_split2(c, difference_poly((1, 0)), difference_poly((0, 3)),
                      BOUNDS)  # product does not annihilate


# ---------------------------------------------------------------------------
# full decomposition

def test_decompose_single_direction():
    fams = sparse_decompose(HORIZ, [difference_poly((2, 0))], BOUNDS)
    assert fams == [HORIZ]


def test_decompose_two_matches_split():
    c = add_views([HORIZ, VERT])
    fams = sparse_decompose(c, [difference_poly((2, 0)),
                                difference_poly((0, 3))], BOUNDS)
    s1, s2 = sparse_split2(c, difference_poly((2, 0)),
                           difference_poly((0, 3)), BOUNDS)
    assert fams == [s1, s2]


def test_decompose_three_directions():
    diag = FiberSum(2, [make_fiber((0, 1), (1, 1), [1, 0, 2])])
    c = add_views([HORIZ, VERT, diag])
    phis = [difference_poly((2, 0)), difference_poly((0, 3)),
            difference_poly((3, 3))]
    fams = sparse_decompose(c, phis, BOUNDS)
    assert fams[0] == HORIZ and fams[1] == VERT and fams[2] == diag
    assert add_views(fams) == c


def test_decompose_verifies_annihilation_per_family():
    c = add_views([HORIZ, VERT])
    fams = sparse_decompose(c, [difference_poly((2, 0)),
                                difference_poly((0, 3))], BOUNDS)
    assert is_annihilated(difference_poly((2, 0)), fams[0]).holds
    assert is_annihilated(difference_poly((0, 3)), fams[1]).holds


def test_full_pipeline_and_zero():
    c = add_views([HORIZ, VERT])
    f = difference_poly((2, 0)) * difference_poly((0, 3))
    fams = sparse_full(c, f, BOUNDS)
    assert add_views(fams) == c
    assert sparse_full(FiberSum.zero(2), difference_poly((1, 0)), BOUNDS) == []


def test_full_single_fiber():
    fams = sparse_full(HORIZ, difference_poly((2, 0)), BOUNDS)
    assert fams == [HORIZ]


def test_one_dimensional_pipeline():
    # in one dimension every annihilated configuration is periodic and the
    # whole grid is a single line
    c = FiberSum(1, [make_fiber((0,), (1,), [4, -1, 0])])
    fams = sparse_full(c, difference_poly((3,)), BOUNDS)
    assert fams == [c]
    rep = check_sparseness(c, 3, 4)
    assert rep.ok and rep.exact


def test_roundtrip_uniqueness_class():
    # grouping by direction is an independent oracle for constructed sums
    rng = random.Random(77)
    for _ in range(15):
        dirs = rng.sample(DIRECTIONS_2D, rng.randint(2, 3))
        fams = [random_fiber_family(rng, 2, d, max_fibers=3, max_period=6,
                                    anchor_range=4) for d in dirs]
        c = add_views(fams)
        factors = []
        for d, fam in zip(dirs, fams):
            period = 1
            for f in fam.fibers:
                period = period * f.period // __import__("math").gcd(
                    period, f.period)
            factors.append(difference_poly(vscale(period, primitive(d))))
        got = sparse_decompose(c, factors, BOUNDS)
        for d, fam, rec in zip(dirs, fams, got):
            assert rec == c.parallel_part(d) == fam


def test_decompose_needs_no_intermediate_period():
    # the derived sum under (X^(0,1) - 1) merges the period-2 and period-3
    # lines at y = 0 and y = 1 into a period-6 line, beyond the bound of 5;
    # the families themselves have periods 2, 3 and 1
    horiz = FiberSum(2, [make_fiber((0, 0), (1, 0), [1, 2]),
                         make_fiber((0, 1), (1, 0), [4, 0, -1])])
    vert = FiberSum(2, [make_fiber((3, 0), (0, 1), [7])])
    c = add_views([horiz, vert])
    phis = [difference_poly((6, 0)), difference_poly((0, 1))]
    bounds = Bounds(period=5)
    with pytest.raises(InconclusiveError):
        reference_sparse_decompose(c, phis, bounds)
    assert sparse_decompose(c, phis, bounds) == [horiz, vert]


def test_decompose_rejects_transverse_stray_fiber():
    stray = FiberSum(2, [make_fiber((0, 2), (1, 1), [1])])
    with pytest.raises(PreconditionError,
                       match="^the product does not annihilate the input$"):
        sparse_decompose(add_views([HORIZ, VERT, stray]),
                         [difference_poly((2, 0)), difference_poly((0, 3))],
                         BOUNDS)


def test_decompose_window_with_two_factors_needs_room_for_the_limits():
    # one factor reads its family off the whole box; two read theirs from
    # translate limits on the check window, which a 13x13 box cannot hold
    phis = [difference_poly((2, 0)), difference_poly((0, 3))]
    w = rasterize(HORIZ, (-6, -6), (6, 6))
    assert sparse_decompose(w, phis[:1], BOUNDS) == [HORIZ]
    with pytest.raises(InconclusiveError) as err:
        sparse_decompose(w, phis, BOUNDS)
    assert err.value.bound == 0
    w = rasterize(add_views([HORIZ, VERT]), (-40, -40), (39, 39))
    assert sparse_decompose(w, phis, BOUNDS) == [HORIZ, VERT]


def test_window_families_must_sum_to_the_input(monkeypatch):
    # zero limits give families that their factors kill exactly, but that
    # miss the input on the check window
    phis = [difference_poly((2, 0)), difference_poly((0, 3))]
    w = rasterize(add_views([HORIZ, VERT]), (-40, -40), (39, 39))
    monkeypatch.setattr(sparse, "stabilized_translate_limit",
                        lambda c, step, window, *bounds: WindowConfig(
                            *window, [0] * box_size(*window)))
    with pytest.raises(VerificationError, match="do not sum to the input"):
        sparse_decompose(w, phis, BOUNDS)


def _window_families_are_parallel_parts(c, phis, lo, hi, bounds=BOUNDS):
    """Whether `sparse_decompose` returns on c rasterized to [lo, hi], after
    checking that each family equals c's parallel part along its factor on
    the check window; the only other outcome allowed is InconclusiveError.
    """
    try:
        got = sparse_decompose(rasterize(c, lo, hi), phis, bounds)
    except InconclusiveError:
        return False
    box = bounds.check_window(c.dim)
    assert [fam.values_on_box(*box) for fam in got] == \
        [c.parallel_part(d).values_on_box(*box)
         for d in non_parallel_directions(phis)]
    return True


def _random_window_case(rng):
    """A 2-d fiber sum along 2 to 4 directions, periods up to 4, its
    difference factors and a random window holding the check window."""
    dirs = rng.sample(DIRECTIONS_2D, rng.randint(2, 4))
    fams = [random_fiber_family(rng, 2, d, max_fibers=2, max_period=4,
                                anchor_range=3) for d in dirs]
    phis = [difference_poly(vscale(lcm(*(f.period for f in fam.fibers)), d))
            for fam, d in zip(fams, dirs)]
    lo = tuple(rng.randint(-100, -16) for _ in range(2))
    hi = tuple(rng.randint(16, 100) for _ in range(2))
    return add_views(fams), phis, lo, hi


# patience 4 lets about a third of the random windows hold the limits
ORACLE_BOUNDS = Bounds(patience=4)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_window_families_are_the_parallel_parts(seed):
    _window_families_are_parallel_parts(
        *_random_window_case(random.Random(seed)), ORACLE_BOUNDS)


def test_window_decompositions_that_succeed():
    assert sum(_window_families_are_parallel_parts(
        *_random_window_case(random.Random(seed)), ORACLE_BOUNDS)
        for seed in range(60)) == 18


@pytest.mark.parametrize("c, phis, n, fits", [
    (THREE_DIRECTIONS_2D, THREE_FACTORS_2D, 100, True),
    (THREE_DIRECTIONS_2D, THREE_FACTORS_2D, 60, False),
    (THREE_DIRECTIONS_3D, THREE_FACTORS_3D, 80, True),
    (THREE_DIRECTIONS_3D, THREE_FACTORS_3D, 24, False)])
def test_three_directions_on_a_window(c, phis, n, fits):
    lo = (-(n // 2),) * c.dim
    assert _window_families_are_parallel_parts(
        c, phis, lo, tuple(v + n - 1 for v in lo)) == fits


# the grouping by direction against the inductive proof it replaces

def _line_poly(dim, w, coeffs, shift):
    """sum_j coeffs[j] X^(shift + j*w)."""
    return LaurentPoly(dim, {tuple(s + j * a for s, a in zip(shift, w)): k
                             for j, k in enumerate(coeffs) if k})


def _random_decomposition_case(rng, dim):
    """A fiber sum, one line polynomial per chosen direction and bounds.

    Each direction carries a family of 0 to 2 fibers and one factor, which
    may or may not annihilate the family: a difference X^(kw) - 1, the
    non-unit (2X^w + 1)(X^(kw) - 1), or the cyclotomic-like
    1 + X^w + ... + X^((n-1)w), which kills a fiber whose table sums to
    zero over n steps (the families drawn for it mostly do).  Each factor
    is moved by a random monomial.  Some cases add a fiber along another
    direction, some a fiber and its negative; the period bound is 4, 6 or
    64.
    """
    directions = DIRECTIONS_2D if dim == 2 else DIRECTIONS_3D
    chosen = rng.sample(directions, rng.randint(1, 3))
    fibers, phis = [], []
    for w in chosen:
        kind = rng.choice(("difference", "non-unit", "cyclotomic"))
        n = rng.randint(2, 4)
        family = []
        for _ in range(rng.choice((0, 1, 1, 2))):
            anchor = tuple(rng.randint(-3, 3) for _ in range(dim))
            if kind == "cyclotomic" and rng.random() < 0.8:
                vals = [rng.randint(-3, 3) for _ in range(n - 1)]
                vals.append(-sum(vals))
            else:
                vals = [rng.randint(-3, 3) for _ in range(rng.randint(1, 6))]
            if any(vals):
                family.append(make_fiber(anchor, w, vals))
        fibers += family
        period = lcm(1, *(f.period for f in family))
        k = period if rng.random() < 0.7 else rng.randint(1, 6)
        if kind == "cyclotomic":
            coeffs = [1] * n
        elif kind == "non-unit":  # (2X^w + 1)(X^(kw) - 1)
            coeffs = [-1, -2] + [0] * (k - 2) + [1, 2] if k > 1 \
                else [-1, -1, 2]
        else:
            coeffs = [-1] + [0] * (k - 1) + [1]
        shift = tuple(rng.randint(-2, 2) for _ in range(dim))
        phis.append(_line_poly(dim, vscale(rng.choice((1, -1)), w), coeffs,
                               shift))
    if rng.random() < 0.2:
        w = rng.choice([d for d in directions if d not in chosen])
        fibers.append(make_fiber((0,) * dim, w, [rng.randint(1, 3)]))
    if rng.random() < 0.2:
        anchor = tuple(rng.randint(-3, 3) for _ in range(dim))
        vals = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        w = rng.choice(chosen)
        fibers += [make_fiber(anchor, w, vals),
                   make_fiber(anchor, w, [-v for v in vals])]
    return FiberSum(dim, fibers), phis, Bounds(period=rng.choice((4, 6, 64)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from((2, 3)))
def test_grouping_matches_inductive_reference(seed, dim):
    c, phis, bounds = _random_decomposition_case(random.Random(seed), dim)
    try:
        want = reference_sparse_decompose(c, phis, bounds)
    except PreconditionError:
        with pytest.raises(PreconditionError):
            sparse_decompose(c, phis, bounds)
        return
    except InconclusiveError:
        # the induction may need a period beyond the bound on a derived
        # sum; the grouping then returns families or is inconclusive too
        try:
            got = sparse_decompose(c, phis, bounds)
        except InconclusiveError:
            return
        assert add_views(got) == c
        for phi, fam in zip(phis, got):
            assert is_annihilated(phi, fam).holds
            assert all(f.period <= bounds.period for f in fam.fibers)
        return
    assert sparse_decompose(c, phis, bounds) == want
