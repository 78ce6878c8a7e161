import random
import re
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from perdec.config import (FiberSum, LazyConfig, PeriodicConfig, Verdict,
                           WindowConfig, _Combination, _fiber_pieces_sum,
                           add_views, apply_poly,
                           box_contains, box_points, box_size,
                           detect_period_multiple, is_annihilated, make_fiber,
                           period_lattice, rasterize)
from perdec.decompose import (Bounds, DifferenceProduct, _TransferEvaluator,
                              _compositions, _line_period, _period_multiple,
                              _period_outside,
                              _require_annihilation,
                              _span_relation,
                              _test_product,
                              annihilator_from_periodizer,
                              decompose_product, k_periodic_decompose,
                              reduce_annihilator,
                              search_difference_annihilator, solve_transfer,
                              verify_transfer)
from perdec.errors import (EmptyRegionError, InconclusiveError,
                           LatticeError, OutOfDomainError, PreconditionError)
from perdec.laurent import (LaurentPoly, difference_poly, poly_product,
                            support_in_subspace)
from perdec.lattice import (SubspaceBasis, primitive, rank_rational, vadd,
                            vscale, vsub)

from helpers import (DIRECTIONS_2D, DIRECTIONS_3D, FunctionView,
                     periodic_from_function, rational_relation,
                     assert_segments_match_points, fiber_parts,
                     pointwise_rasterize, random_fiber_family,
                     reference_combination_values,
                     reference_search, reference_source_values,
                     reference_test_product,
                     reference_transfer_value, reference_verify_on_window,
                     segment_points)

TRIVIAL2 = SubspaceBasis.trivial(2)
CHECKER = PeriodicConfig(2, [(2, 0), (0, 2)], [0, 1, 1, 0])
BOUNDS = Bounds()


# ---------------------------------------------------------------------------
# solve_transfer

def test_transfer_constant_source():
    # phi = X1 - 1, psi = X2 - 1, source = 1: the band gauge forces
    # c(x, y) = -x (recurrence c(a) = c(a-1) - 1 seeded with c(0, y) = 0).
    sol = solve_transfer(difference_poly((1, 0)), difference_poly((0, 1)),
                         PeriodicConfig.constant(2, 1), TRIVIAL2)
    for x in box_points((-6, -6), (6, 6)):
        assert sol.value_at(x) == -x[0]
    assert verify_transfer(sol, (-6, -6), (6, 6))["ok"]


def test_transfer_zero_source():
    sol = solve_transfer(difference_poly((1, 0)), difference_poly((0, 1)),
                         FiberSum.zero(2), TRIVIAL2)
    assert all(sol.value_at(x) == 0
               for x in box_points((-5, -5), (5, 5)))


def test_transfer_integrality_with_difference_polynomials():
    rng = random.Random(17)
    for _ in range(10):
        v1, v2 = rng.sample(DIRECTIONS_2D, 2)
        k1, k2 = rng.randint(1, 3), rng.randint(1, 3)
        phi = difference_poly(tuple(k1 * a for a in v1))
        psi = difference_poly(tuple(k2 * a for a in v2))
        basis = [tuple(k2 * a for a in v2), v1]
        if rank_rational(basis) < 2:
            continue
        cprime = periodic_from_function(
            2, basis, lambda r: rng.randint(-5, 5))
        sol = solve_transfer(phi, psi, cprime, TRIVIAL2)
        for x in box_points((-8, -8), (8, 8)):
            assert isinstance(sol.value_at(x), int)
        assert verify_transfer(sol, (-5, -5), (5, 5))["ok"]


def test_transfer_rational_values_with_non_unit_extremes():
    # phi = 2*X1 - 1 has extreme coefficient 2: backward extension divides.
    phi = LaurentPoly(2, {(1, 0): 2, (0, 0): -1})
    psi = difference_poly((0, 1))
    sol = solve_transfer(phi, psi, PeriodicConfig.constant(2, 1), TRIVIAL2)
    vals = [sol.value_at((x, 0)) for x in range(-4, 5)]
    assert any(isinstance(v, Fraction) for v in vals)
    assert verify_transfer(sol, (-4, -4), (4, 4))["ok"]
    with pytest.raises(PreconditionError):
        rasterize(sol, (-4, -4), (0, 0))  # non-integer values


def test_transfer_preconditions():
    one = PeriodicConfig.constant(2, 1)
    with pytest.raises(PreconditionError):
        solve_transfer(difference_poly((1, 0)), difference_poly((2, 0)),
                       one, TRIVIAL2)  # parallel
    with pytest.raises(PreconditionError):
        solve_transfer(difference_poly((1, 0)), difference_poly((0, 1)),
                       one, SubspaceBasis(2, [(1, 1)]))  # span collision
    xm2 = periodic_from_function(2, [(2, 0), (0, 1)], lambda r: r[0] % 2)
    with pytest.raises(PreconditionError):
        solve_transfer(difference_poly((0, 1)), difference_poly((1, 0)),
                       xm2, TRIVIAL2)  # psi does not annihilate the source
    with pytest.raises(PreconditionError):
        solve_transfer(LaurentPoly(2, {(1, 1): 1, (1, 0): 1, (0, 1): 1}),
                       difference_poly((0, 1)), one, TRIVIAL2)  # not a line


def test_transfer_window_source_limits_queries():
    w = rasterize(PeriodicConfig.constant(2, 1), (-10, -10), (10, 10))
    sol = solve_transfer(difference_poly((1, 0)), difference_poly((0, 1)),
                         w, TRIVIAL2)
    assert sol.value_at((3, 0)) == -3  # reachable from the band
    with pytest.raises(OutOfDomainError):
        sol.value_at((40, 0))  # source window too small for this query


def _transfer_cases():
    """(phi, psi, source) triples with integer and Fraction recurrences."""
    rng = random.Random(29)
    steps = periodic_from_function(2, [(2, 0), (0, 1)],
                                   lambda r: r[0] + 1)
    return [
        (difference_poly((2, 1)), difference_poly((0, 1)),
         periodic_from_function(2, [(0, 1), (3, 0)],
                                lambda r: rng.randint(-5, 5))),
        (difference_poly((1, 1)), difference_poly((2, -2)),
         periodic_from_function(2, [(2, -2), (1, 1)],
                                lambda r: rng.randint(-5, 5))),
        (LaurentPoly(2, {(1, 0): 2, (0, 0): -1}), difference_poly((0, 1)),
         steps),
        (LaurentPoly(2, {(0, 0): 2, (1, 0): 1, (2, 0): -3}),
         difference_poly((0, 1)), steps),
    ]


@pytest.mark.parametrize("case", range(4))
def test_transfer_values_do_not_depend_on_query_order(case):
    phi, psi, source = _transfer_cases()[case]
    points = list(box_points((-6, -6), (6, 6)))
    ref_view = solve_transfer(phi, psi, source, TRIVIAL2)
    ref = {x: reference_transfer_value(ref_view, x) for x in points}
    if case >= 2:
        assert any(isinstance(v, Fraction) for v in ref.values())
    shuffled = points[:]
    random.Random(case).shuffle(shuffled)
    far = [(40, 3), (-40, -3), (3, 40), (-3, -40)]
    for order in (shuffled, points[::-1], far + points):
        view = solve_transfer(phi, psi, source, TRIVIAL2)
        got = {x: view.value_at(x) for x in order}
        assert {x: got[x] for x in points} == ref


@pytest.mark.parametrize("radius", [0, -1, -8])
def test_bounds_reject_check_radius_below_one(radius):
    with pytest.raises(PreconditionError):
        Bounds(check_radius=radius)


@pytest.mark.parametrize("field", ["search", "period", "k_max", "patience",
                                   "check_radius"])
def test_bounds_reject_every_field_below_one(field):
    for value in (0, -3):
        with pytest.raises(PreconditionError,
                           match=f"bound {field} must be at least 1"):
            Bounds(**{field: value})
    assert getattr(Bounds(**{field: 1}), field) == 1


def test_evaluator_evidence_is_checked_at_radius_one():
    # a lazy source that psi does not annihilate is caught on the smallest
    # evidence window the bounds allow
    bump = FunctionView(2, lambda x: int(x == (0, 1)))
    with pytest.raises(PreconditionError, match="evaluator evidence"):
        solve_transfer(difference_poly((1, 0)), difference_poly((0, 1)),
                       bump, TRIVIAL2, Bounds(check_radius=1))


def _protocol_views():
    """One integer view of each representation on Z^2, the lazy ones too,
    keyed by class name."""
    fs = FiberSum(2, [make_fiber((0, 1), (1, 0), [1, 2]),
                      make_fiber((0, -2), (1, 0), [3])])
    source = periodic_from_function(2, [(2, 0), (0, 3)],
                                    lambda r: r[0] - r[1])
    return {
        "WindowConfig": rasterize(CHECKER, (-12, -12), (12, 12)),
        "PeriodicConfig": CHECKER,
        "FiberSum": fs,
        "_Combination": add_views([fs, CHECKER]),
        "_TransferEvaluator": solve_transfer(difference_poly((1, 0)),
                                             difference_poly((0, 3)), source,
                                             TRIVIAL2),
        "FunctionView": FunctionView(2, lambda x: (x[0] + x[1]) % 2),
    }


@pytest.mark.parametrize("kind", ["WindowConfig", "PeriodicConfig",
                                  "FiberSum", "_Combination",
                                  "_TransferEvaluator", "FunctionView"])
def test_zero_polynomial_annihilates_every_view_exactly(kind):
    c = _protocol_views()[kind]
    zero = LaurentPoly.zero(2)
    assert is_annihilated(zero, c) == Verdict.exactly(True)
    assert _require_annihilation(zero, c, BOUNDS, "no") == \
        Verdict.exactly(True)
    assert _require_annihilation(zero, add_views([CHECKER, c]), BOUNDS,
                                 "no") == Verdict.exactly(True)


@pytest.mark.parametrize("kind", ["WindowConfig", "PeriodicConfig",
                                  "FiberSum", "_Combination",
                                  "_TransferEvaluator", "FunctionView"])
def test_protocol_answers_agree_with_the_rasterized_window(kind):
    # apply_poly, annihilation and period queries answer as the rasterized
    # check window does: exactly for periodic and fiber views, as evidence
    # on their own box for windows and on the check window for lazy views
    c = _protocol_views()[kind]
    assert type(c).__name__ == kind
    exact = kind in ("PeriodicConfig", "FiberSum")
    lazy = isinstance(c, LazyConfig)
    failure = "no" if exact else "no (evaluator evidence)" if lazy \
        else "no (window evidence)"
    bounds = Bounds(period=8, check_radius=9)
    lo, hi = bounds.check_window(2)
    for f in [difference_poly(v) for v in ((2, 0), (1, 1), (0, 3), (1, 0))]:
        ref = apply_poly(f, rasterize(c, lo, hi))
        assert rasterize(apply_poly(f, c), *ref.box) == ref
        # the box grown by supp(f) erodes back to [lo, hi]
        supp = f.support()
        grown = (tuple(a - max(e[i] for e in supp) for i, a in enumerate(lo)),
                 tuple(b - min(e[i] for e in supp) for i, b in enumerate(hi)))
        evidence = is_annihilated(f, rasterize(c, *grown))
        assert evidence.region == (lo, hi)
        if lazy:
            with pytest.raises(PreconditionError, match="undecidable"):
                is_annihilated(f, c)
            want = evidence
        else:
            want = Verdict.exactly(evidence.holds) if exact else \
                Verdict.on_window(evidence.holds, *apply_poly(f, c).box)
            assert is_annihilated(f, c) == want
        if want.holds:
            assert _require_annihilation(f, c, bounds, "no") == want
        else:
            with pytest.raises(PreconditionError) as err:
                _require_annihilation(f, c, bounds, "no")
            assert str(err.value) == failure
    for w in [(1, 0), (0, 1), (1, 1), (2, -1)]:
        k, on_window = detect_period_multiple(rasterize(c, lo, hi), w, 8)
        assert not on_window
        if lazy:
            with pytest.raises(PreconditionError, match="explicit window"):
                detect_period_multiple(c, w, 8)
        got = detect_period_multiple(c, w, 8, window=(lo, hi))
        assert got == (k, exact)
        if k is None:
            with pytest.raises(InconclusiveError):
                _period_multiple(c, w, bounds, "test")
        else:
            assert _period_multiple(c, w, bounds, "test") == got


def test_transfer_band_gauge():
    # band width equals the one-dimensional degree of phi along its line
    phi = difference_poly((2, 0))  # offsets {0, 2} along (1, 0)
    sol = solve_transfer(phi, difference_poly((0, 1)),
                         PeriodicConfig.constant(2, 3), TRIVIAL2)
    assert sol.gauge["band_width"] == 2
    for y in range(-3, 4):
        assert sol.value_at((0, y)) == 0
        assert sol.value_at((1, y)) == 0


def test_a_transfer_view_is_the_whole_record_of_its_summand():
    # the view returned by solve_transfer carries its equation and gauge,
    # and verify_transfer reads them from the view alone
    source = periodic_from_function(2, [(4, 0), (0, 3)],
                                    lambda r: r[0] * r[0] - r[1])
    psi = difference_poly((0, 3))
    for phi, gauge in (
            (difference_poly((2, 1)) * LaurentPoly(2, {(-1, 0): 1}),
             {"generators": [[2, 1], [0, 1]], "step": [2, 1],
              "band_width": 1, "anchor_shift": [-1, 0]}),
            (poly_product([difference_poly((2, 1)), difference_poly((4, 2))]),
             {"generators": [[2, 1], [0, 1]], "step": [2, 1],
              "band_width": 3, "anchor_shift": [0, 0]})):
        view = solve_transfer(phi, psi, source, TRIVIAL2)
        assert (view.phi, view.psi, view.source) == (phi, psi, source)
        assert view.gauge == gauge
        assert verify_transfer(view, (-6, -6), (6, 6))["ok"]


@pytest.mark.parametrize("nfactors", [2, 3])
def test_a_lifted_component_records_its_views_gauge(nfactors):
    # a sum of one periodic part per factor: one transfer summand per
    # lifted component, n - 1 of them at the top level
    factors = [(2, 0), (0, 3), (1, 1)][:nfactors]
    c = add_views([
        periodic_from_function(2, [(2, 0), (0, 1)], lambda r: r[0] % 2),
        periodic_from_function(2, [(1, 0), (0, 3)], lambda r: r[1] % 3),
        periodic_from_function(2, [(1, 1), (0, 2)],
                               lambda r: (r[0] + r[1]) % 2)][:nfactors])
    dec = decompose_product([difference_poly(v) for v in factors], c,
                            TRIVIAL2)
    lifted = [isinstance(comp.view, _TransferEvaluator)
              for comp in dec.components]
    assert sum(lifted) == nfactors - 1
    for comp, transfer in zip(dec.components, lifted):
        assert comp.gauge is (comp.view.gauge if transfer else None)


# ---------------------------------------------------------------------------
# decompose_product

def test_decompose_product_single_factor_is_identity():
    dec = decompose_product([difference_poly((2, 0))], CHECKER, TRIVIAL2)
    assert len(dec.components) == 1
    assert dec.components[0].view is CHECKER


def test_decompose_product_separable():
    c = periodic_from_function(2, [(6, 0), (0, 6)],
                               lambda r: (r[0] % 2) + (r[1] % 3))
    dec = decompose_product([difference_poly((2, 0)),
                             difference_poly((0, 3))], c, TRIVIAL2)
    report = dec.verify_on_window((-15, -15), (15, 15))
    assert report["ok"]


def test_decompose_product_checkerboard_diagonals():
    dec = decompose_product([difference_poly((1, 1)),
                             difference_poly((1, -1))], CHECKER, TRIVIAL2)
    report = dec.verify_on_window((-10, -10), (10, 10))
    assert report["ok"]


def test_decompose_product_three_factors_integer_values():
    parts = [
        periodic_from_function(2, [(2, 0), (0, 1)], lambda r: r[0] % 2),
        periodic_from_function(2, [(1, 0), (0, 3)], lambda r: r[1] % 3),
        periodic_from_function(2, [(1, 1), (0, 2)],
                               lambda r: (r[0] + r[1]) % 2),
    ]
    c = add_views(parts)
    phis = [difference_poly((2, 0)), difference_poly((0, 3)),
            difference_poly((1, 1))]
    dec = decompose_product(phis, c, TRIVIAL2)
    report = dec.verify_on_window((-8, -8), (8, 8))
    assert report["ok"]
    for comp in dec.components:
        for x in box_points((-8, -8), (8, 8)):
            assert isinstance(comp.view.value_at(x), int)


def test_decompose_product_with_general_line_polynomial():
    # phi1 = 1 + X1 + X1^2 annihilates a 3-periodic row pattern summing to
    # zero; its extreme coefficients are units, so everything stays integer
    phi1 = LaurentPoly(2, {(0, 0): 1, (1, 0): 1, (2, 0): 1})
    phi2 = difference_poly((0, 2))
    a = periodic_from_function(2, [(3, 0), (0, 1)],
                               lambda r: (1, -2, 1)[r[0]])
    b = periodic_from_function(2, [(1, 0), (0, 2)], lambda r: 5 * r[1])
    c = add_views([a, b])
    assert is_annihilated(phi1 * phi2, c).holds
    for order in ([phi1, phi2], [phi2, phi1]):
        dec = decompose_product(order, c, TRIVIAL2)
        report = dec.verify_on_window((-9, -9), (9, 9))
        assert report["ok"]
        for comp in dec.components:
            for x in box_points((-9, -9), (9, 9)):
                assert isinstance(comp.view.value_at(x), int)


def test_decompose_product_components_inherit_subspace_periodicity():
    # c is constant along e3; with V = span{e3} every component of the
    # decomposition must again be e3-periodic (the coset construction puts
    # e3 among the generators, so the band and recurrence respect it)
    c = periodic_from_function(
        3, [(2, 0, 0), (0, 3, 0), (0, 0, 1)],
        lambda r: (r[0] % 2) + 2 * (r[1] % 3))
    V = SubspaceBasis(3, [(0, 0, 1)])
    phis = [difference_poly((2, 0, 0)), difference_poly((0, 3, 0))]
    dec = decompose_product(phis, c, V)
    lo, hi = (-5, -5, -2), (5, 5, 2)
    assert dec.verify_on_window(lo, hi)["ok"]
    for comp in dec.components:
        for x in box_points((-5, -5, -2), (5, 5, 1)):
            shifted = (x[0], x[1], x[2] + 1)
            assert comp.view.value_at(x) == comp.view.value_at(shifted)


def _k1_checker():
    return k_periodic_decompose(CHECKER, 1, _tile_family())


def _k2_checker():
    return k_periodic_decompose(CHECKER, 2, _tile_family())


def _k3_parity():
    c = periodic_from_function(
        3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)],
        lambda r: (r[0] + r[1] + r[2]) % 2)
    fams = [LaurentPoly(3, {(0, 0, 0): 1,
                            tuple(-int(i == j) for j in range(3)): 1})
            for i in range(3)]
    return k_periodic_decompose(c, 3, fams)


def _fiber_input():
    rng = random.Random(8)
    parts, phis = [], []
    for d in ((1, 0), (0, 1), (1, 1)):
        fam = random_fiber_family(rng, 2, d, max_fibers=3, max_period=3)
        period = 1
        for f in fam.fibers:
            period = period * f.period // gcd(period, f.period)
        parts.append(fam)
        phis.append(difference_poly(tuple(period * a for a in d)))
    return decompose_product(phis, add_views(parts), TRIVIAL2)


def _three_factor_input():
    c = add_views([
        periodic_from_function(2, [(2, 0), (0, 1)], lambda r: r[0] % 2),
        periodic_from_function(2, [(1, 0), (0, 3)], lambda r: r[1] % 3),
        periodic_from_function(2, [(1, 1), (0, 2)],
                               lambda r: (r[0] + r[1]) % 2)])
    return decompose_product([difference_poly((2, 0)),
                              difference_poly((0, 3)),
                              difference_poly((1, 1))], c, TRIVIAL2)


def _fraction_input():
    c = periodic_from_function(2, [(2, 0), (0, 1)], lambda r: r[0] + 1)
    return decompose_product(
        [difference_poly((0, 1)), LaurentPoly(2, {(1, 0): 2, (0, 0): -1})],
        c, TRIVIAL2)


def _window_input():
    c = periodic_from_function(2, [(2, 0), (0, 3)],
                               lambda r: r[0] + 2 * r[1])
    return decompose_product([difference_poly((2, 0)),
                              difference_poly((0, 3))],
                             rasterize(c, (-12, -12), (12, 12)), TRIVIAL2)


def _three_dim_input():
    c = periodic_from_function(
        3, [(2, 0, 0), (0, 3, 0), (0, 0, 1)],
        lambda r: (r[0] % 2) + 2 * (r[1] % 3))
    return decompose_product([difference_poly((2, 0, 0)),
                              difference_poly((0, 3, 0))], c,
                             SubspaceBasis(3, [(0, 0, 1)]))


def _two_factor_input():
    c = periodic_from_function(2, [(6, 0), (0, 6)],
                               lambda r: (r[0] % 2) + (r[1] % 3))
    return decompose_product([difference_poly((2, 0)),
                              difference_poly((0, 3))], c, TRIVIAL2)


VERIFY_CASES = {
    "two_factors": (_two_factor_input, (-7, -7), (7, 7)),
    "three_factors": (_three_factor_input, (-6, -5), (6, 7)),
    "fiber_sum": (_fiber_input, (-6, -6), (6, 6)),
    "window": (_window_input, (-4, -4), (4, 4)),
    "k_periodic": (_k2_checker, (-6, -6), (6, 6)),
    "k_periodic_1": (_k1_checker, (-6, -6), (6, 6)),
    "k_periodic_3": (_k3_parity, (-3, -3, -3), (3, 3, 3)),
    "fractions": (_fraction_input, (-4, -4), (4, 4)),
    "three_dim": (_three_dim_input, (-3, -3, -2), (3, 3, 2)),
}


@pytest.mark.parametrize("name", sorted(VERIFY_CASES))
def test_verify_on_window_matches_pointwise_reference(name):
    build, lo, hi = VERIFY_CASES[name]
    # separate decompositions, so neither check reads the other's caches
    got = build().verify_on_window(lo, hi)
    assert got == reference_verify_on_window(build(), lo, hi)
    assert got["ok"]


def test_verify_on_window_keeps_fraction_values():
    dec = _fraction_input()
    assert any(isinstance(dec.components[0].view.value_at(x), Fraction)
               for x in box_points((-4, -4), (4, 4)))
    with pytest.raises(PreconditionError):
        rasterize(dec.components[0].view, (-4, -4), (4, 4))
    assert dec.verify_on_window((-4, -4), (4, 4)) == {
        "box": ((-4, -4), (4, 4)), "sum": True, "annihilation": [True, True],
        "ok": True}


def test_window_input_with_fraction_component_is_rejected():
    # the residual of a window input is lazy like the transfer component it
    # holds: it keeps the exact rational values of the periodic input's
    # residual, and rasterize rejects them instead of truncating
    ones = rasterize(PeriodicConfig.constant(2, 1), (-6, -6), (6, 6))
    phis = [difference_poly((0, 1)), LaurentPoly(2, {(0, 0): 2, (1, 0): -1})]
    dec = decompose_product(phis, ones, TRIVIAL2)
    ref = decompose_product(phis, PeriodicConfig.constant(2, 1), TRIVIAL2)
    lo, hi = (-4, -4), (4, 4)
    assert dec.verify_on_window(lo, hi)["ok"]
    assert ref.verify_on_window(lo, hi)["ok"]
    for comp, ref_comp in zip(dec.components, ref.components):
        assert isinstance(comp.view, LazyConfig)
        assert comp.view.values_on_box(lo, hi) == \
            ref_comp.view.values_on_box(lo, hi)
        with pytest.raises(PreconditionError,
                           match=r"non-integer value 1/2 at \(1, -4\)"):
            rasterize(comp.view, lo, hi)


@pytest.mark.parametrize("name", ["two_factors", "three_factors", "fractions",
                                  "k_periodic_1"])
@pytest.mark.parametrize("bump", [(0, 0), (-4, -4), (4, 4), (-5, 2), (-5, -4),
                                  (-5, -5), (-4, -6), (-4, -7), (-6, -7),
                                  (4, 5), (7, 0)])
def test_verify_on_window_perturbed_component_matches_reference(name, bump):
    # bumps inside the box break the sum; bumps below it can still break a
    # component's annihilation inside the box
    build, _, _ = VERIFY_CASES[name]
    lo, hi = (-4, -4), (4, 4)
    reports = []
    for dec in (build(), build()):
        comp = dec.components[-1]
        view = comp.view
        comp.view = FunctionView(2, lambda x, v=view: v.value_at(x)
                                 + (x == bump))
        reports.append(dec.verify_on_window(lo, hi) if not reports
                       else reference_verify_on_window(dec, lo, hi))
    assert reports[0] == reports[1]
    if box_contains(lo, hi, bump):
        assert not reports[0]["sum"]


def test_decompose_product_precondition_failure():
    c = periodic_from_function(2, [(4, 0), (0, 2)],
                               lambda r: (r[0] + 2 * r[1]) % 4)
    with pytest.raises(PreconditionError):
        decompose_product([difference_poly((1, 0)),
                           difference_poly((0, 1))], c,
                          TRIVIAL2)  # product does not annihilate


# ---------------------------------------------------------------------------
# reduce_annihilator

def test_difference_product_refuses_non_integral_vectors():
    with pytest.raises(LatticeError, match="non-integer entry 1/2"):
        DifferenceProduct(((Fraction(1, 2), 1),))
    dp = DifferenceProduct(((Fraction(2), 1), (0, 1)))
    assert dp.vectors == ((0, 1), (2, 1))
    assert all(type(x) is int for v in dp.vectors for x in v)


def test_reduce_parallel_pair_on_constant():
    red = reduce_annihilator(DifferenceProduct(((1, 0), (2, 0))),
                             PeriodicConfig.constant(2, 1), TRIVIAL2, BOUNDS)
    assert red.vectors == ((1, 0),)
    assert is_annihilated(poly_product(red.polys()),
                          PeriodicConfig.constant(2, 1)).holds


def test_reduce_already_reduced_fixpoint():
    dp = DifferenceProduct(((1, 0), (0, 1)))
    red = reduce_annihilator(dp, PeriodicConfig.constant(2, 5), TRIVIAL2,
                             BOUNDS)
    assert red.vectors == dp.vectors


def test_reduce_span_collision():
    # e = (y mod 2) + ((x - y) mod 3) is annihilated by
    # (X^{(1,0)}-1)(X^{(1,1)}-1) and is span{(0,1)}-periodic; the collision
    # rewrite lands on the single factor X^{(3,0)}-1.
    e = periodic_from_function(
        2, [(6, 0), (0, 6)], lambda r: (r[1] % 2) + ((r[0] - r[1]) % 3))
    V = SubspaceBasis(2, [(0, 1)])
    red = reduce_annihilator(DifferenceProduct(((1, 0), (1, 1))), e, V, BOUNDS)
    assert red.vectors == ((3, 0),)
    assert is_annihilated(difference_poly((3, 0)), e).holds


def _random_independent(rng, dim, count, bound=4):
    vecs = []
    while len(vecs) < count:
        v = tuple(rng.randint(-bound, bound) for _ in range(dim))
        if any(v) and rank_rational(vecs + [v]) == len(vecs) + 1:
            vecs.append(v)
    return vecs


def test_span_relation_matches_the_rational_nullspace():
    # v_j' is a rational combination s*v_j + t*v0 with v0 in V, divided by
    # the gcd of its coordinates, so the relation needs more than integer
    # weights of 1; the HNF relation equals the rational nullspace vector
    # scaled to a primitive integer one
    rng = random.Random(97)
    cases = 0
    while cases < 2000:
        dim = rng.choice((2, 3, 4))
        V = SubspaceBasis(dim, _random_independent(
            rng, dim, rng.randint(1, dim - 1)))
        vj = tuple(rng.randint(-6, 6) for _ in range(dim))
        if not any(vj) or V.contains(vj):
            continue
        v0 = (0,) * dim
        for b in V.integer_rows():
            v0 = vadd(v0, vscale(rng.randint(-3, 3), b))
        s, t = rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(-3, 3)
        if not t or not any(v0):
            continue
        vjp = primitive(vadd(vscale(s, vj), vscale(t, v0)))
        rel = _span_relation(vj, vjp, V)
        want = rational_relation([vj, vjp, *V.integer_rows()])
        assert rel == want, (vj, vjp, V.basis)
        # primitive, last nonzero weight positive, and a relation
        assert gcd(*rel) == 1 and [a for a in rel if a][-1] > 0
        total = (0,) * dim
        for a, v in zip(rel, [vj, vjp, *V.integer_rows()]):
            total = vadd(total, vscale(a, v))
        assert not any(total)
        cases += 1


def test_reduce_rejects_factor_inside_subspace():
    V = SubspaceBasis(2, [(0, 1)])
    with pytest.raises(PreconditionError):
        reduce_annihilator(DifferenceProduct(((0, 2), (1, 0))),
                           PeriodicConfig.constant(2, 1), V, BOUNDS)


def test_reduce_randomized_collapse_with_rank_one_subspace():
    # in the plane any two non-parallel vectors span everything, so with a
    # one-dimensional subspace the rules must collapse every redundant
    # product to a single transversal factor
    rng = random.Random(61)
    V = SubspaceBasis(2, [(0, 1)])
    for _ in range(20):
        pa, pb = rng.choice((2, 3, 4)), rng.choice((2, 3))
        fa = [rng.randint(-3, 3) for _ in range(pa)]
        gb = [rng.randint(-3, 3) for _ in range(pb)]
        lcm_x = pa * pb // __import__("math").gcd(pa, pb)
        e = periodic_from_function(
            2, [(lcm_x, 0), (0, pb)],
            lambda r: fa[r[0] % pa] + gb[(r[0] - r[1]) % pb])
        dp = DifferenceProduct(((pa, 0), (2 * pa, 0), (pb, pb)))
        assert is_annihilated(poly_product(dp.polys()), e).holds
        red = reduce_annihilator(dp, e, V, BOUNDS)
        assert len(red.vectors) == 1
        v = red.vectors[0]
        # the collapse direction depends on deterministic rewrite order;
        # both input directions admit a period of e
        assert primitive(v) in ((1, 0), (1, 1))
        assert not V.contains(v)
        assert is_annihilated(difference_poly(v), e).holds


def test_reduce_output_transversality_property():
    rng = random.Random(29)
    V = SubspaceBasis(2, [(0, 1)])
    e = periodic_from_function(
        2, [(4, 0), (0, 2)], lambda r: (r[0] % 4) * (r[1] % 2 + 1))
    dp = DifferenceProduct(((4, 0), (8, 0), (4, 2)))
    red = reduce_annihilator(dp, e, V, BOUNDS)
    vecs = red.vectors
    for i in range(len(vecs)):
        assert not V.contains(vecs[i])
        for j in range(i + 1, len(vecs)):
            assert primitive(vecs[i]) != primitive(vecs[j])
    assert is_annihilated(poly_product(red.polys()), e).holds


# ---------------------------------------------------------------------------
# annihilator_from_periodizer

def test_annihilator_from_periodizer_skips_cancelled_origin():
    # with V the vertical axis, n = 1 cancels the origin term and is
    # rejected by the exact support check; n = 2 is the first admissible.
    g = LaurentPoly(2, {(0, 0): 1, (-1, 0): 1})
    V = SubspaceBasis(2, [(0, 1)])
    f = annihilator_from_periodizer(g, CHECKER, V, Bounds(search=8))
    assert f == difference_poly((2, 0)) * g
    assert is_annihilated(f, CHECKER).holds
    assert support_in_subspace(f, V) == {(0, 0)}


def test_annihilator_from_periodizer_with_annihilator_input():
    V = SubspaceBasis(2, [(0, 1)])
    g = difference_poly((2, 0))  # already annihilates the checkerboard
    f = annihilator_from_periodizer(g, CHECKER, V, Bounds(search=8))
    assert is_annihilated(f, CHECKER).holds
    assert support_in_subspace(f, V) == {(0, 0)}


def test_annihilator_from_periodizer_trivial_subspace():
    g = LaurentPoly(2, {(0, 0): 1, (-1, 0): 1})
    f = annihilator_from_periodizer(g, CHECKER, TRIVIAL2, Bounds(search=8))
    assert is_annihilated(f, CHECKER).holds


def test_annihilator_from_periodizer_preconditions():
    V = SubspaceBasis(2, [(0, 1)])
    with pytest.raises(PreconditionError):
        # support meets V beyond the origin; can never clear
        annihilator_from_periodizer(difference_poly((0, 1)), CHECKER, V,
                                    Bounds(search=8))
    with pytest.raises(PreconditionError):
        annihilator_from_periodizer(
            LaurentPoly(2, {(0, 0): 1, (-1, 0): 1}), CHECKER,
            SubspaceBasis(2, [(1, 0), (0, 1)]),  # V not proper
            Bounds(search=8))


# ---------------------------------------------------------------------------
# search_difference_annihilator

def test_search_checkerboard_tile_polynomial():
    f = LaurentPoly(2, {(0, 0): 1, (-1, 0): 1})
    dp = search_difference_annihilator(CHECKER, f, 32)
    assert dp.vectors == ((2, 0),)


def test_search_constant():
    dp = search_difference_annihilator(PeriodicConfig.constant(2, 9),
                                       difference_poly((1, 0)), 32)
    assert dp.vectors == ((1, 0),)


def test_search_crossing_fibers_needs_both_factors():
    a = FiberSum(2, [make_fiber((0, 0), (1, 0), [1, 0])])
    b = FiberSum(2, [make_fiber((0, 0), (0, 1), [2, 1, 0])])
    c = add_views([a, b])
    f = difference_poly((2, 0)) * difference_poly((0, 3))
    assert not is_annihilated(difference_poly((2, 0)), c).holds
    assert not is_annihilated(difference_poly((0, 3)), c).holds
    dp = search_difference_annihilator(c, f, 32)
    assert dp.vectors == ((0, 3), (2, 0))
    assert is_annihilated(poly_product(dp.polys()), c).holds


def test_search_multiplier_deepening_and_exhaustion():
    # c is one fiber of minimal period 6 whose values sum to zero, so the
    # full-period indicator annihilates it; raw support differences only
    # reach offsets 1..5, forcing the multiplier search to k = 6.
    c = FiberSum(2, [make_fiber((0, 0), (1, 0), [1, -1, 2, -2, 3, -3])])
    f = LaurentPoly(2, {(i, 0): 1 for i in range(6)})
    assert is_annihilated(f, c).holds
    dp = search_difference_annihilator(c, f, 8)
    assert dp.vectors == ((6, 0),)
    with pytest.raises(InconclusiveError):
        search_difference_annihilator(c, f, 4)


def test_search_avoid_filter():
    V = SubspaceBasis(2, [(1, 0)])
    f = difference_poly((2, 0)) * difference_poly((0, 2))
    dp = search_difference_annihilator(CHECKER, f, 32, avoid=V)
    for v in dp.vectors:
        assert not V.contains(v)
    assert is_annihilated(poly_product(dp.polys()), CHECKER).holds


# ---------------------------------------------------------------------------
# the certificate test, one fiber direction at a time

def _period_six_vals(rng):
    """A 6-periodic table a[j % 2] + b[j % 3] with neither part constant:
    (X^{2w} - 1)(X^{3w} - 1) kills its fiber, neither factor alone does."""
    a = [rng.randint(-4, 4)]
    a.append(a[0] + rng.choice((-2, -1, 1, 2)))
    b = [rng.randint(-4, 4) for _ in range(3)]
    if b[0] == b[1] == b[2]:
        b[1] += 1
    return [a[j % 2] + b[j % 3] for j in range(6)]


def _random_certificate_case(rng, dim):
    """A fiber sum and a candidate vector list for the certificate test.

    Fibers come along up to three directions, each given to make_fiber as
    a signed or non-primitive multiple; some lines carry a fiber and its
    negative, which cancel, and some carry a period-6 table.  The vectors
    hold at most one factor per direction, as every candidate of the
    search does: the lcm period of a fiber direction (scaled by a signed
    multiplier), a random multiple of it, or a vector along a direction
    with no factor yet, so the product both does and does not annihilate.
    """
    directions = DIRECTIONS_2D if dim == 2 else DIRECTIONS_3D
    fibers = []
    for w in rng.sample(directions, rng.choice((0, 1, 2, 2, 3, 3, 3))):
        for _ in range(rng.randint(1, 3)):
            anchor = tuple(rng.randint(-4, 4) for _ in range(dim))
            given = vscale(rng.choice((1, 1, -1, 2, -3)), w)
            if rng.random() < 0.2:
                vals = _period_six_vals(rng)
            else:
                vals = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
                if not any(vals):
                    vals[0] = 1
            fibers.append(make_fiber(anchor, given, vals))
            if rng.random() < 0.25:
                fibers.append(make_fiber(anchor, given, [-v for v in vals]))
    c = FiberSum(dim, fibers)
    periods = {}
    for f in c.fibers:
        periods[f.direction] = lcm(periods.get(f.direction, 1), f.period)
    vectors = []
    for w in sorted({f.direction for f in fibers if f is not None}):
        choice = rng.random()
        if choice < 0.5:
            vectors.append(vscale(rng.choice((1, -1, 2)) * periods.get(w, 1), w))
        elif choice < 0.85:
            vectors.append(vscale(rng.choice((-4, -3, -2, -1, 1, 2, 3, 5)), w))
    free = [w for w in directions if w not in {primitive(v) for v in vectors}]
    for w in rng.sample(free, rng.randint(0 if vectors else 1, 2)):
        vectors.append(vscale(rng.choice((1, -1, 2)), w))
    rng.shuffle(vectors)
    return c, vectors[:5]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from((2, 3)))
def test_per_direction_test_matches_full_product(seed, dim):
    c, vectors = _random_certificate_case(random.Random(seed), dim)
    assert _test_product(vectors, fiber_parts(c)) == \
        reference_test_product(vectors, c)


def _line_and_cancelled_line():
    # a fiber and its negative on the line through the origin along (1, 1),
    # given as a non-primitive negative multiple, beside a (1, 0) fiber
    f = make_fiber((0, 0), (-2, -2), [3, -1])
    g = make_fiber((0, 0), (-2, -2), [-3, 1])
    return FiberSum(2, [f, g, make_fiber((0, 1), (1, 0), [1, 2, 3])])


# [2, 0] * 3 plus [3, -1, 1] * 2: periods 2 and 3 add to period 6
_SIX = FiberSum(2, [make_fiber((0, 0), (1, 1), [5, -1, 3, 3, 1, 1])])
# [2, 0] * 3 plus [1, 4, -2] * 2, on a line in Z^3
_SIX3 = FiberSum(3, [make_fiber((1, 0, 0), (1, -1, 2),
                                [a + b for a, b in zip([2, 0] * 3,
                                                       [1, 4, -2] * 2)])])


@pytest.mark.parametrize("c,vectors,holds", [
    # cancelled lines need no factor of their own
    (_line_and_cancelled_line(), [(3, 0)], True),
    (_line_and_cancelled_line(), [(3, 0), (-1, -1)], True),
    (_line_and_cancelled_line(), [(2, 0)], False),
    # period 6 = lcm(2, 3): killed by 6w and 12w, not by 2w or 3w, beside
    # transverse factors or not
    (_SIX, [(12, 12), (0, 1)], True),
    (_SIX, [(1, 0), (-6, -6), (0, 1)], True),
    (_SIX, [(-6, -6)], True),
    (_SIX, [(2, 2)], False),
    (_SIX, [(3, 3), (1, 0), (0, 1)], False),
    (_SIX3, [(-12, 12, -24), (1, 0, 0)], True),
    (_SIX3, [(2, -2, 4), (1, 0, 0)], False),
    # negative and non-primitive multiples of a fiber direction
    (FiberSum(2, [make_fiber((0, 1), (1, -1), [1, 4])]), [(-4, 4)], True),
    (FiberSum(2, [make_fiber((0, 1), (1, -1), [1, 4])]), [(-3, 3)], False),
    # every factor transverse to the fibers
    (FiberSum(2, [make_fiber((0, 0), (1, 0), [1])]),
     [(0, 1), (1, 1), (2, -1)], False),
    (FiberSum(3, [make_fiber((0, 0, 0), (0, 0, 1), [2, 1])]),
     [(1, 0, 0), (0, 2, 0)], False),
    # the zero fiber sum has no parts and is annihilated by every product
    (FiberSum.zero(2), [(1, 0)], True),
    (FiberSum.zero(3), [(1, 2, 3), (0, 0, 1)], True),
])
def test_per_direction_test_edge_cases(c, vectors, holds):
    assert reference_test_product(vectors, c) is holds
    assert _test_product(vectors, fiber_parts(c)) is holds


def test_whole_view_part_runs_the_full_product():
    window = rasterize(CHECKER, (-3, -3), (3, 3))
    for c in (CHECKER, window):
        for vectors in ([(2, 0)], [(1, 1)], [(1, 0), (0, 1)], [(9, 0)]):
            assert _test_product(vectors, [(None, c)]) == \
                reference_test_product(vectors, c)


def _sparse_full_case(rng):
    """Fibers along two or three directions with periods in 1..8 and the
    product of X^{P w} - 1 over their directions, P the lcm period."""
    fibers, f = [], LaurentPoly.constant(2, 1)
    for w in rng.sample(DIRECTIONS_2D, rng.randint(2, 3)):
        period = 1
        for _ in range(rng.randint(3, 5)):
            p = rng.choice((1, 2, 3, 4, 6, 8))
            vals = [rng.randint(-4, 4) for _ in range(p)]
            vals[0] = vals[0] or 1
            fibers.append(make_fiber((rng.randint(-6, 6), rng.randint(-6, 6)),
                                     w, vals))
            period = lcm(period, p)
        f = f * difference_poly(vscale(period, w))
    return FiberSum(2, fibers), f, 32


def _exhausted_case(rng):
    """Zero-sum 3-periodic fibers along w under 1 + X^w + X^{2w}: the
    certificate X^{3w} - 1 needs multiplier 3, beyond the bound 2."""
    w = rng.choice(DIRECTIONS_2D)
    fibers = []
    for _ in range(rng.randint(4, 8)):
        a, b = rng.randint(-4, 4), rng.randint(1, 4)
        fibers.append(make_fiber((rng.randint(-9, 9), rng.randint(-9, 9)), w,
                                 [a, b, -a - b]))
    f = LaurentPoly(2, {(0, 0): 1, w: 1, vscale(2, w): 1})
    return FiberSum(2, fibers), f, 2


def _search_with(monkeypatch, test, c, f, bound):
    """The search's answer (None when exhausted) and every candidate it
    tested, with `test` in place of the certificate test."""
    tried = []

    def counted(vectors, parts):
        tried.append(tuple(vectors))
        return test(vectors, parts)
    monkeypatch.setattr("perdec.decompose._test_product", counted)
    try:
        return search_difference_annihilator(c, f, bound).vectors, tried
    except InconclusiveError:
        return None, tried


@pytest.mark.parametrize("seed", range(8))
def test_search_matches_full_product_reference(monkeypatch, seed):
    rng = random.Random(seed)
    c, f, bound = (_exhausted_case if seed % 4 == 3 else _sparse_full_case)(rng)
    fast = _search_with(monkeypatch, _test_product, c, f, bound)
    slow = _search_with(monkeypatch,
                        lambda vectors, parts: reference_test_product(vectors,
                                                                      c),
                        c, f, bound)
    assert fast == slow
    assert (fast[0] is None) == (seed % 4 == 3)


def _along(coeffs, w):
    """The line polynomial sum_j coeffs[j] X^{j w}."""
    return LaurentPoly(len(w), {vscale(j, w): a
                                for j, a in enumerate(coeffs) if a})


# Phi_n, lowest degree first, for the n that _random_search_case draws
_CYCLOTOMIC = {1: [-1, 1], 2: [1, 1], 3: [1, 1, 1], 4: [1, 0, 1],
               6: [1, -1, 1]}


def _random_search_case(rng):
    """A small fiber sum and an annihilator of it that is a product of line
    factors g_w(X^w), one per direction: g_w is Phi_n or t^n - 1, and every
    table along w is h = (t^n - 1)/g_w times a random table, so g_w kills
    it.  Tables may vanish, so some sums are zero."""
    f, fibers = LaurentPoly.constant(2, 1), []
    for i, w in enumerate(rng.sample(DIRECTIONS_2D, rng.randint(1, 2))):
        if rng.random() < 0.6:
            # a second factor has two terms, so f has at most 6
            n = rng.choice((1, 2, 4) if i else (1, 2, 3, 4, 6))
            g = _along(_CYCLOTOMIC[n], w)
            h = poly_product([_along(_CYCLOTOMIC[d], (1,))
                              for d in range(1, n) if n % d == 0], dim=1)
        else:
            n = rng.randint(1, 6)
            g, h = difference_poly(vscale(n, w)), LaurentPoly.constant(1, 1)
        f = f * g
        for _ in range(rng.randint(0, 3)):
            v = [rng.randint(-2, 2) for _ in range(n)]
            u = [0] * n
            for (j,), a in h.terms():
                for k, b in enumerate(v):
                    u[(j + k) % n] += a * b
            fibers.append(make_fiber((rng.randint(-5, 5), rng.randint(-5, 5)),
                                     w, u))
    return FiberSum(2, fibers), f


def _search_or_bound(c, f, bound):
    """The search's vectors, or the bound its exhaustion names."""
    try:
        return search_difference_annihilator(c, f, bound).vectors
    except InconclusiveError as exc:
        assert exc.bound == bound
        least = re.search(r"bound (\d+) would suffice", str(exc))
        return int(least[1]) if least else None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 4))
def test_search_matches_plain_enumeration(seed, bound):
    c, f = _random_search_case(random.Random(seed))
    found = _search_or_bound(c, f, bound)
    expected = reference_search(c, f, bound)
    if expected is not None:
        assert found == tuple(sorted(expected))
        return
    # exhausted: corner 0 of f yields every fiber direction, so the search
    # names a least bound; the search succeeds there and not below it
    assert found > bound
    vectors = search_difference_annihilator(c, f, found).vectors
    assert reference_test_product(vectors, c)
    if found - 1 <= 4:
        assert reference_search(c, f, found - 1) is None


def test_search_tests_one_factor_per_direction(monkeypatch):
    # _test_product decides a fiber part by one factor per direction, so
    # the search must never hand it two parallel factors
    sizes = []

    def spy(vectors, parts):
        assert len({primitive(v) for v in vectors}) == len(vectors), vectors
        sizes.append(len(vectors))
        return _test_product(vectors, parts)
    monkeypatch.setattr("perdec.decompose._test_product", spy)
    for seed in range(40):
        rng = random.Random(seed)
        for c, f, bound in (_random_search_case(rng) + (seed % 4 + 1,),
                            _sparse_full_case(rng)):
            try:
                search_difference_annihilator(c, f, bound)
            except InconclusiveError:
                pass
    assert max(sizes) >= 3


def test_exhausted_search_stops_before_enumerating(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _compositions(*args)
    monkeypatch.setattr("perdec.decompose._compositions", counted)
    cases = [_exhausted_case(random.Random(seed)) + (3,) for seed in range(4)]
    # _SIX has period 6: the least bound is 6, though f steps by 2 and 3
    cases.append((_SIX, difference_poly((2, 2)) * difference_poly((3, 3)),
                  4, 6))
    for c, f, bound, least in cases:
        with pytest.raises(InconclusiveError, match=rf"bound {bound}; bound "
                                                    rf"{least} would suffice$"
                           ) as exc:
            search_difference_annihilator(c, f, bound)
        assert exc.value.bound == bound
        assert not calls
        # the named bound is enough, and phase 2 gets to enumerate
        assert len(search_difference_annihilator(c, f, least)) == 1
        assert calls
        calls.clear()


def test_search_without_a_corner_for_every_direction_says_no_bound_helps():
    c = FiberSum(2, [make_fiber((0, 0), (1, 0), [1, -1]),
                     make_fiber((0, 0), (0, 1), [2, 1])])
    f = difference_poly((2, 0)) * difference_poly((0, 2))
    with pytest.raises(InconclusiveError,
                       match="no bound suffices: no corner of f yields every "
                             "fiber direction") as exc:
        search_difference_annihilator(c, f, 32,
                                      avoid=SubspaceBasis(2, [(0, 1)]))
    assert exc.value.bound == 32


# ---------------------------------------------------------------------------
# k_periodic_decompose

def _tile_family():
    return [LaurentPoly(2, {(0, 0): 1, (-1, 0): 1}),
            LaurentPoly(2, {(0, 0): 1, (0, -1): 1})]


def test_k1_behaves_like_plain_decomposition():
    dec = k_periodic_decompose(CHECKER, 1, _tile_family())
    assert dec.verify_on_window((-8, -8), (8, 8))["ok"]
    for comp in dec.components:
        assert len(comp.periods) == 1


def test_k2_checkerboard_strongly_periodic_components():
    dec = k_periodic_decompose(CHECKER, 2, _tile_family())
    report = dec.verify_on_window((-10, -10), (10, 10))
    assert report["ok"]
    for comp in dec.components:
        assert rank_rational(comp.periods) == 2
        for p in comp.periods:
            assert is_annihilated(difference_poly(p), CHECKER).holds or \
                not isinstance(comp.view, PeriodicConfig)


def test_k2_already_strongly_periodic_single_component_ok():
    # a strongly periodic input may come back as one component; the
    # properties (sum and periods), not the shape, are the contract
    c = periodic_from_function(2, [(3, 0), (0, 2)],
                               lambda r: r[0] + 2 * r[1])
    family = [difference_poly(row) for row in period_lattice(c)]
    dec = k_periodic_decompose(c, 2, family)
    assert dec.verify_on_window((-9, -9), (9, 9))["ok"]
    total = sum(len(comp.periods) > 0 for comp in dec.components)
    assert total == len(dec.components)
    for comp in dec.components:
        assert rank_rational(comp.periods) == 2


def test_k2_level_with_two_components(monkeypatch):
    # the first level leaves two components, so the second level picks a
    # period outside the subspace for each of them
    calls = []

    def counted(comp, V):
        calls.append(comp)
        return _period_outside(comp, V)
    monkeypatch.setattr("perdec.decompose._period_outside", counted)
    c = PeriodicConfig(2, [(2, 0), (0, 2)], [-2, 0, -1, -1])
    family = [LaurentPoly(2, {(0, 0): 1, (1, 0): -1}),
              LaurentPoly(2, {(0, 0): 1, (0, 1): 1, (2, 1): 1})]
    dec = k_periodic_decompose(c, 2, family)
    assert len(calls) == 2
    assert dec.verify_on_window((-6, -6), (6, 6))["ok"]
    assert [comp.periods for comp in dec.components] == [
        ((0, 2), (1, 0)), ((0, 2), (1, 1))]
    for comp in dec.components:
        window = rasterize(comp.view, (-6, -6), (6, 6))
        for p in comp.periods:
            assert is_annihilated(difference_poly(p), window).holds


def test_k_periodic_rejects_a_bad_family_member_before_any_work():
    # the family is checked at entry, naming the member, before the input
    # is read
    def unread(x):
        raise AssertionError(f"read {x} before the family was checked")

    c = FunctionView(2, unread)
    good = _tile_family()[0]
    for bad in ("X - 1", None, LaurentPoly(3, {(0, 0, 0): 1, (1, 0, 0): 1})):
        with pytest.raises(PreconditionError,
                           match="periodizer 1 is not a LaurentPoly of "
                                 "dimension 2"):
            k_periodic_decompose(c, 1, [good, bad])
        with pytest.raises(PreconditionError, match="periodizer 0 is not"):
            k_periodic_decompose(c, 1, iter([bad]))


def test_k_periodic_member_without_the_origin():
    off = LaurentPoly(2, {(1, 0): 1, (0, 1): 1})
    with pytest.raises(PreconditionError,
                       match="^periodizer without the origin in support$"):
        k_periodic_decompose(CHECKER, 1, [off] + _tile_family())


def test_k_out_of_range():
    with pytest.raises(PreconditionError):
        k_periodic_decompose(CHECKER, 3, _tile_family())


def test_merge_components_sharing_a_subspace():
    from perdec.decompose import Component, _merge_by_subspace
    a = periodic_from_function(2, [(2, 0), (0, 2)],
                               lambda r: r[0] + r[1])
    b = periodic_from_function(2, [(1, 1), (1, -1)],
                               lambda r: 3 * r[0])
    full = SubspaceBasis(2, [(1, 0), (0, 1)])
    comps = [
        Component(view=a, line_poly=difference_poly((2, 0)),
                  subspace=full, periods=((2, 0), (0, 2))),
        Component(view=b, line_poly=difference_poly((1, 1)),
                  subspace=full, periods=((1, 1), (1, -1))),
    ]
    merged = _merge_by_subspace(comps, BOUNDS)
    assert len(merged) == 1
    view = merged[0].view
    for x in box_points((-4, -4), (4, 4)):
        assert view.value_at(x) == a.value_at(x) + b.value_at(x)
    # detected periods are multiples of the first member's directions and
    # really fix the merged sum
    for p in merged[0].periods:
        assert is_annihilated(difference_poly(p), add_views([a, b])).holds
    assert rank_rational(merged[0].periods) == 2
    # the annotated polynomial annihilates the merged view
    assert is_annihilated(merged[0].line_poly, add_views([a, b])).holds


def test_merge_keeps_first_appearance_order():
    # five distinct lines keep their input order, and [(2, 4)] merges with
    # the later [(1, 2)] at its own first place
    from perdec.decompose import Component, _merge_by_subspace
    b = periodic_from_function(2, [(1, 1), (1, -1)], lambda r: 3 * r[0])
    lines = [(1, 1), (2, 4), (2, 1), (0, 1), (1, 0), (1, -1), (1, 2)]
    comps = [Component(view=b if line == (1, 2) else CHECKER,
                       line_poly=difference_poly(line),
                       subspace=SubspaceBasis(2, [line]), periods=(line,))
             for line in lines]
    merged = _merge_by_subspace(comps, BOUNDS)
    assert [m.subspace.basis for m in merged] == \
        [((1, 1),), ((2, 4),), ((2, 1),), ((0, 1),), ((1, 0),), ((1, -1),)]
    pair = merged[1]
    assert pair.line_poly == difference_poly((2, 4)) * difference_poly((1, 2))
    assert pair.periods == ((2, 4),)
    for x in box_points((-4, -4), (4, 4)):
        assert pair.view.value_at(x) == CHECKER.value_at(x) + b.value_at(x)


def test_k3_three_dimensional_pipeline():
    # (x + y + z) mod 2 is a common co-tiler of the three axis dominoes
    c = periodic_from_function(
        3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)],
        lambda r: (r[0] + r[1] + r[2]) % 2)
    fams = [LaurentPoly(3, {(0, 0, 0): 1, tuple(-int(i == j) for j in
                                                range(3)): 1})
            for i in range(3)]
    dec = k_periodic_decompose(c, 3, fams)
    assert dec.verify_on_window((-5, -5, -5), (5, 5, 5))["ok"]
    for comp in dec.components:
        assert rank_rational(comp.periods) == 3


# ---------------------------------------------------------------------------
# transfer components evaluated a box at a time

TRIVIAL3 = SubspaceBasis.trivial(3)


def _box_transfer_cases():
    """(phi, psi, source, V) in dims 2 and 3, integer and Fraction values,
    periodic, fiber-sum and window sources."""
    cases = [(phi, psi, src, TRIVIAL2) for phi, psi, src in _transfer_cases()]
    fibers = FiberSum(2, [make_fiber((0, 1), (0, 1), [1, -2]),
                          make_fiber((3, 0), (0, 1), [4]),
                          make_fiber((-2, 0), (0, 1), [0, 5])])
    cases.append((difference_poly((1, 1)), difference_poly((0, 2)), fibers,
                  TRIVIAL2))
    cases.append((difference_poly((1, -2)), difference_poly((1, 1)),
                  periodic_from_function(2, [(1, 1), (3, 0)],
                                         lambda r: 2 * r[0] - 1),
                  TRIVIAL2))
    cases.append((difference_poly((1, 0)), difference_poly((0, 1)),
                  rasterize(periodic_from_function(
                      2, [(3, 0), (0, 1)], lambda r: r[0] - 1),
                      (-30, -30), (30, 30)), TRIVIAL2))
    src3 = periodic_from_function(
        3, [(0, 1, 0), (2, 0, 0), (0, 0, 3)], lambda r: r[0] + 2 * r[2] + 1)
    cases.append((LaurentPoly(3, {(0, 0, 0): 2, (1, 0, 1): 1, (2, 0, 2): -3}),
                  difference_poly((0, 1, 0)), src3, TRIVIAL3))
    src3b = periodic_from_function(
        3, [(0, 0, 1), (2, 0, 0), (0, 3, 0)], lambda r: r[0] - r[1])
    cases.append((LaurentPoly(3, {(0, 0, 0): -1, (1, -1, 0): 3}),
                  difference_poly((0, 0, 1)), src3b,
                  SubspaceBasis(3, [(1, 0, 0)])))
    return cases


def _box_cases(dim):
    """Boxes near the band, far from it and of width 1 in some axis."""
    if dim == 2:
        return [((-6, -5), (6, 7)), ((3, -6), (3, 6)), ((-6, 2), (6, 2)),
                ((18, -23), (24, -17)), ((-25, 11), (-20, 25)),
                ((0, 0), (0, 0))]
    return [((-3, -2, -3), (3, 2, 3)), ((1, -4, -4), (1, 4, 4)),
            ((9, 5, -12), (12, 7, -9)), ((-2, 0, 0), (2, 0, 0))]


@pytest.mark.parametrize("case", range(9))
def test_transfer_values_on_box_match_points(case):
    phi, psi, source, V = _box_transfer_cases()[case]
    dim = phi.dim
    fractions = False
    for lo, hi in _box_cases(dim):
        # a fresh view per box: no line is shared
        view = solve_transfer(phi, psi, source, V)
        want = [reference_transfer_value(view, x) for x in box_points(lo, hi)]
        got = view.values_on_box(lo, hi)
        assert got == want
        assert [type(v) for v in got] == [type(v) for v in want]
        fractions = fractions or any(isinstance(v, Fraction) for v in got)
    assert fractions == (case in (2, 3, 7, 8))


@pytest.mark.parametrize("case", range(9))
def test_transfer_point_and_box_queries_share_lines(case):
    phi, psi, source, V = _box_transfer_cases()[case]
    dim = phi.dim
    boxes = _box_cases(dim)
    view = solve_transfer(phi, psi, source, V)
    want = {box: [reference_transfer_value(view, x) for x in box_points(*box)]
            for box in boxes}
    rng = random.Random(case)
    for lo, hi in boxes:
        # some points first, then the box, then every point again
        points = list(box_points(lo, hi))
        for x in rng.sample(points, min(5, len(points))):
            assert view.value_at(x) == reference_transfer_value(view, x)
        assert view.values_on_box(lo, hi) == want[lo, hi]
    for lo, hi in reversed(boxes):
        assert [view.value_at(x) for x in box_points(lo, hi)] == want[lo, hi]
        assert view.values_on_box(lo, hi) == want[lo, hi]


def test_transfer_window_source_box_errors_like_points():
    w = rasterize(PeriodicConfig.constant(2, 1), (-10, -10), (10, 10))
    args = (difference_poly((1, 0)), difference_poly((0, 1)), w, TRIVIAL2)
    assert solve_transfer(*args).values_on_box((-4, -4), (9, 4)) == [
        -x for x, _ in box_points((-4, -4), (9, 4))]
    for lo, hi in [((30, 0), (32, 1)), ((-12, -3), (-9, 3))]:
        with pytest.raises(OutOfDomainError):
            solve_transfer(*args).values_on_box(lo, hi)
        with pytest.raises(OutOfDomainError):
            [solve_transfer(*args).value_at(x)
             for x in box_points(lo, hi)]


@pytest.mark.parametrize("case", range(9))
def test_transfer_values_on_segments_match_points(case):
    phi, psi, source, V = _box_transfer_cases()[case]
    dim = phi.dim
    w = solve_transfer(phi, psi, source, V).w
    rng = random.Random(97 + case)
    segments = [(tuple(rng.randint(-8, 8) for _ in range(dim)),
                 tuple(rng.randint(-2, 2) for _ in range(dim)),
                 rng.choice((1, 1, 2, 5, 8))) for _ in range(14)]
    # along and against the recurrence lines, standing still, empty
    one = (1,) * dim
    segments += [(one, w, 9), (one, vscale(-1, w), 9),
                 (vscale(3, one), (0,) * dim, 3), (one, w, 0)]
    assert sum(any(s < 0 for s in step) for _, step, _ in segments) >= 5
    view = solve_transfer(phi, psi, source, V)
    want = assert_segments_match_points(
        view, segments, lambda x: reference_transfer_value(view, x))
    fractions = any(isinstance(v, Fraction) for vals in want for v in vals)
    assert fractions == (case in (2, 3, 7, 8))


def test_transfer_window_source_segments_error_like_points():
    w = rasterize(PeriodicConfig.constant(2, 1), (-10, -10), (10, 10))
    args = (difference_poly((1, 0)), difference_poly((0, 1)), w, TRIVIAL2)
    assert solve_transfer(*args).values_on_segments(
        [((-4, 2), (1, -1), 6)]) == [[4, 3, 2, 1, 0, -1]]
    with pytest.raises(OutOfDomainError):
        solve_transfer(*args).values_on_segments(
            [((0, 0), (1, 0), 3), ((25, 0), (1, 1), 2)])


def _torus_family_input(family):
    """A 12x12-periodic input, one summand invariant along each vector."""
    parts = []
    for k, (a, b) in enumerate(family):
        table = [(5 * j + 3 * k) % 7 - 3 for j in range(12)]
        parts.append(periodic_from_function(
            2, [(12, 0), (0, 12)],
            lambda r, a=a, b=b, t=table: t[(b * r[0] - a * r[1]) % 12]))
    return add_views(parts)


@pytest.mark.parametrize("family, box_read", [
    # nearly parallel: a source box around the extension segments would be
    # huge, so every source is read segment by segment
    (((1, 2), (2, 5), (5, 13)), False),
    # the inner transfer components and residual sums are lazy sources;
    # they are read by box too wherever the box wastes little
    (((3, -2), (5, -3), (2, 7)), True),
    # factors like the benchmark's: the convolved input is read by box too
    (((1, 0), (2, -2), (2, 1)), True)])
def test_transfer_source_box_reads_stay_within_four_times(monkeypatch,
                                                          family, box_read):
    served, reads = [], []
    source_values = _TransferEvaluator._source_values

    def recording_source_values(self, segments):
        served.append(sum(seg[-1] for seg in segments))
        try:
            return source_values(self, segments)
        finally:
            served.pop()
    monkeypatch.setattr(_TransferEvaluator, "_source_values",
                        recording_source_values)
    # every class with its own box read, the lazy ones included
    for cls in (PeriodicConfig, FiberSum, WindowConfig, _Combination,
                _TransferEvaluator):
        def recording_box(self, lo, hi, box=cls.__dict__["values_on_box"]):
            if served:
                reads.append((type(self), box_size(lo, hi), served[-1]))
            return box(self, lo, hi)
        monkeypatch.setattr(cls, "values_on_box", recording_box)

    c = _torus_family_input(family)
    phis = [difference_poly(v) for v in family]
    lo, hi = (-20, -20), (19, 19)
    # a lazy view of the torus passes the product check only as evidence,
    # so no transfer view keys its lines modulo a period and every line
    # through the boxes reads its own source points
    dec = decompose_product(phis, FunctionView(2, c.value_at), TRIVIAL2)
    assert [comp.view.period for comp in dec.components[:-1]] == [None] * 2
    assert dec.verify_on_window(lo, hi)["ok"]
    boxes = [rasterize(comp.view, lo, hi) for comp in dec.components]
    monkeypatch.undo()
    assert bool(reads) == box_read
    if box_read:
        assert {kind for kind, _, _ in reads} & {_Combination,
                                                 _TransferEvaluator}
    assert all(size <= 4 * points for _, size, points in reads), max(
        reads, key=lambda r: r[1] / r[2])
    ref = decompose_product(phis, c, TRIVIAL2)
    assert boxes == [pointwise_rasterize(comp.view, lo, hi)
                     for comp in ref.components]


GUARD_FAMILIES = [((1, 2), (2, 5), (5, 13)), ((3, -2), (5, -3), (2, 7)),
                  ((1, 0), (2, -2), (2, 1))]


def _segment_source_values(self, segments):
    """_TransferEvaluator._source_values always taking the segment path."""
    return self.source.values_on_segments([seg[2:] for seg in segments])


# the recurrence values the guard families compute under the read rule,
# lines keyed modulo psi's period; with one key per line the rule computed
# 141,330, 49,724 and 10,645, and point reads 141,330, 24,493 and 7,910
RULE_WORK = dict(zip(GUARD_FAMILIES, (1441, 891, 260)))


@pytest.mark.parametrize("family", GUARD_FAMILIES)
def test_transfer_segment_reads_extend_the_lines_point_reads_do(monkeypatch,
                                                                family):
    # a segment read of a lazy source extends exactly the recurrence lines
    # that reading it point by point would: no more work, nothing skipped;
    # the box reads of the real rule give the same values for the pinned
    # recurrence work
    c = _torus_family_input(family)
    phis = [difference_poly(v) for v in family]
    lo, hi = (-20, -20), (19, 19)
    init = _TransferEvaluator.__init__

    def run(source_values):
        evaluators = []

        def recording_init(self, *args):
            init(self, *args)
            evaluators.append(self)
        with monkeypatch.context() as m:
            m.setattr(_TransferEvaluator, "__init__", recording_init)
            m.setattr(_TransferEvaluator, "_source_values", source_values)
            dec = decompose_product(phis, c, TRIVIAL2)
            assert dec.verify_on_window(lo, hi)["ok"]
            boxes = [rasterize(comp.view, lo, hi) for comp in dec.components]
        assert len(evaluators) == 3  # one inner, two outer
        return boxes, sum(len(vals) for ev in evaluators
                          for vals in ev.lines.values())

    boxes, seg_work = run(_segment_source_values)
    ref_boxes, ref_work = run(reference_source_values)
    assert boxes == ref_boxes
    assert seg_work == ref_work
    rule_boxes, rule_work = run(_TransferEvaluator._source_values)
    assert rule_boxes == ref_boxes
    assert rule_work == RULE_WORK[family]


WINDOW_SWEEP = [((1, 0), (0, 1), (1, 1))] + GUARD_FAMILIES + [
    ((3, 0), (0, 2)), ((1, 1), (2, -1))]


def _window_sweep_outcomes():
    """Per (family, R, r): whether decompose_product of the [-R, R - 1]^2
    window of a torus input succeeds on [-r, r - 1]^2, r odd, or the
    error it runs into.  Every success must give the components of the
    periodic input the window was cut from."""
    outcomes = {}
    for family in WINDOW_SWEEP:
        c = _torus_family_input(family)
        phis = [difference_poly(v) for v in family]
        ref = decompose_product(phis, c, TRIVIAL2)
        for R in (10, 16, 24):
            window = rasterize(c, (-R, -R), (R - 1, R - 1))
            for r in range(1, R, 2):
                lo, hi = (-r, -r), (r - 1, r - 1)
                try:
                    dec = decompose_product(phis, window, TRIVIAL2)
                    report = dec.verify_on_window(lo, hi)
                    boxes = [rasterize(comp.view, lo, hi)
                             for comp in dec.components]
                except (OutOfDomainError, EmptyRegionError,
                        InconclusiveError) as exc:
                    outcomes[family, R, r] = type(exc).__name__
                    continue
                assert report["ok"]
                assert boxes == [rasterize(comp.view, lo, hi)
                                 for comp in ref.components]
                outcomes[family, R, r] = "ok"
    return outcomes


def test_window_inputs_decompose_like_their_periodic_source(monkeypatch):
    # the oracle for window inputs: wherever a run succeeds, its components
    # are those of the periodic source.  The residual of a window input is
    # lazy, so three-factor windows succeed wherever the recurrences stay
    # inside the window; an eager window residual, built over the whole
    # window, succeeded only in the runs of ((3, 0), (0, 2))
    outcomes = _window_sweep_outcomes()
    assert [sum(outcomes[family, R, r] == "ok" for R in (10, 16, 24)
                for r in range(1, R, 2))
            for family in WINDOW_SWEEP] == [12, 0, 0, 3, 22, 22]
    # the read rule decides how sources are read, never which runs succeed
    monkeypatch.setattr(_TransferEvaluator, "_source_values",
                        _segment_source_values)
    assert _window_sweep_outcomes() == outcomes


@pytest.mark.parametrize("family", GUARD_FAMILIES[::2])
def test_nested_transfer_segments_match_points(family):
    c = _torus_family_input(family)
    phis = [difference_poly(v) for v in family]
    ref = decompose_product(phis, c, TRIVIAL2)
    dec = decompose_product(phis, c, TRIVIAL2)
    rng = random.Random(sum(map(sum, family)))
    segments = [(tuple(rng.randint(-12, 12) for _ in range(2)),
                 tuple(rng.randint(-3, 3) for _ in range(2)),
                 rng.randint(1, 9)) for _ in range(12)]
    for comp, ref_comp in zip(dec.components, ref.components):
        # lazy transfer sources and residual sums are read by segment too
        assert_segments_match_points(comp.view, segments,
                                     ref_comp.view.value_at)


def test_transfer_point_read_after_box_read_extends_no_line():
    phi, psi, source, V = _box_transfer_cases()[1]
    view = solve_transfer(phi, psi, source, V)
    lo, hi = (-9, -7), (8, 6)
    box = view.values_on_box(lo, hi)
    work = sum(map(len, view.lines.values()))
    assert work and any(box)
    assert [view.value_at(x) for x in box_points(lo, hi)] == box
    assert sum(map(len, view.lines.values())) == work


def _line_poly(coefs, v, anchor=(0, 0)):
    """sum_j coefs[j] X^(anchor + j*v)."""
    return LaurentPoly(2, {vadd(anchor, vscale(j, v)): k
                           for j, k in enumerate(coefs) if k})


@pytest.mark.parametrize("psi, bound, period", [
    (_line_poly([-1, 1], (4, 2)), 64, (4, 2)),  # X^u - 1
    (_line_poly([-2, 2], (4, 2)), 64, (4, 2)),  # content removed
    (_line_poly([-1, 1], (1, -3), (-5, 7)), 64, (1, -3)),  # anchor removed
    (_line_poly([1, 1], (1, 2)), 64, (2, 4)),  # 1 + X^v
    (_line_poly([1, 1, 1], (3, 0)), 64, (9, 0)),  # 1 + X^v + X^2v
    (_line_poly([1, -1, 1], (2, 1)), 64, (12, 6)),  # Phi_6(X^v)
    (_line_poly([1, -1, 1], (2, 1)), 6, (12, 6)),
    (_line_poly([2, 1], (0, 1)), 64, None),  # 2 + X^v
    (_line_poly([1, 2], (0, 1)), 64, None),  # 1 + 2X^v
    (_line_poly([1, -1, 1], (2, 1)), 5, None),  # N = 6 above the bound
    (_line_poly([-1, 0, 0, 1], (1, 1)), 1, (3, 3)),  # the bound is on N
])
def test_line_period(psi, bound, period):
    assert _line_period(psi, bound) == period


# the kinds of random factors q(X^v): (coefficients of q and of r, N) with
# q*r divisible by t^N - 1; (t - 1)(t + 2) has the extreme coefficient -2,
# so its transfers divide into Fractions, and no period
FACTOR_KINDS = {"difference": ([-1, 1], [1], 1),
                "three-term": ([1, 1, 1], [-1, 1], 3),
                "phi6": ([1, -1, 1], [-1, -1, 0, 1, 1], 6),
                "non-unit": ([-2, 1, 1], [1], 1)}


def _torus_product_input(sides, factors, rng):
    """A periodic input with one summand per factor (kind, v): r(X^v)
    applied to a random table on the torus spanned by N*v and the side of
    `sides` on an axis apart from v, so that q(X^v) kills the summand and
    the product of the factors kills their sum exactly."""
    parts = []
    for kind, v in factors:
        _, r, n = FACTOR_KINDS[kind]
        side = (sides[0], 0) if v[1] else (0, sides[1])
        g = periodic_from_function(2, [vscale(n, v), side],
                                   lambda x: rng.randint(-3, 3))
        parts.append(apply_poly(_line_poly(r, v), g))
    return add_views(parts)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_period_keyed_decompositions_match_per_line_keys(data):
    # every component of an exactly checked decomposition, whose transfer
    # views key their lines modulo psi's period, equals the same component
    # of an evidence-only decomposition of the same source, pointwise and
    # by the one-point recurrence; a window cut from the source keeps one
    # key per line and agrees wherever it is determined.  Boxes are compared
    # as value lists: rasterize refuses the non-integral Fractions that
    # transfers through (t - 1)(t + 2) produce
    sides = data.draw(st.tuples(st.integers(2, 12), st.integers(2, 12)))
    count = data.draw(st.integers(2, 3))
    dirs = data.draw(st.lists(st.sampled_from(DIRECTIONS_2D), min_size=count,
                              max_size=count, unique=True))
    factors = [(data.draw(st.sampled_from(sorted(FACTOR_KINDS))),
                vscale(data.draw(st.integers(1, 2)), d)) for d in dirs]
    c = _torus_product_input(sides, factors,
                             random.Random(data.draw(st.integers(0, 999))))
    phis = [_line_poly(FACTOR_KINDS[kind][0], v) for kind, v in factors]
    dec = decompose_product(phis, c, TRIVIAL2)
    ref = decompose_product(phis, FunctionView(2, c.value_at), TRIVIAL2)
    # only (t - 1)(t + 2) divides no t^N - 1
    assert [comp.view.period is None for comp in dec.components[:-1]] == \
        [kind == "non-unit" for kind, _ in factors[:-1]]
    assert all(comp.view.period is None for comp in ref.components[:-1])
    corner = data.draw(st.tuples(st.integers(-10, 6), st.integers(-10, 6)))
    lo, hi = corner, vadd(corner, data.draw(st.tuples(st.integers(2, 6),
                                                      st.integers(2, 6))))
    points = list(box_points(lo, hi))
    got = [comp.view.values_on_box(lo, hi) for comp in dec.components]
    assert got == [[comp.view.value_at(x) for x in points]
                   for comp in ref.components]
    assert got[:-1] == [[reference_transfer_value(comp.view, x)
                         for x in points] for comp in ref.components[:-1]]
    assert got == [[comp.view.value_at(x) for x in points]
                   for comp in decompose_product(phis, c, TRIVIAL2).components]

    window = rasterize(c, (-12, -12), (11, 11))
    try:
        wdec = decompose_product(phis, window, TRIVIAL2)
        wgot = [comp.view.values_on_box(lo, hi) for comp in wdec.components]
    except (OutOfDomainError, EmptyRegionError, InconclusiveError):
        return  # not determined by the window
    assert all(comp.view.period is None for comp in wdec.components[:-1])
    assert wgot == got


@pytest.mark.parametrize("case", [0, 3, 7])
def test_shifted_and_convolved_transfer_views_read_natively(monkeypatch,
                                                            case):
    # translate and apply_poly of a transfer view read boxes and segments
    # through the view's own box and segment reads, never point by point
    phi, psi, source, V = _box_transfer_cases()[case]
    dim = phi.dim
    t = (3, -2, 1)[:dim]
    f = LaurentPoly(dim, {(0,) * dim: 2, (1,) + (0,) * (dim - 1): -1,
                          (0,) * (dim - 1) + (-2,): 3})
    ref_view = solve_transfer(phi, psi, source, V)

    def shifted(x):
        return reference_transfer_value(ref_view, vsub(x, t))

    def convolved(x):
        return sum(k * reference_transfer_value(ref_view, vsub(x, e))
                   for e, k in f.terms())

    lo, hi = (-4,) * dim, (3,) + (5,) * (dim - 1)
    rng = random.Random(case)
    segments = [(tuple(rng.randint(-6, 6) for _ in range(dim)),
                 tuple(rng.randint(-2, 2) for _ in range(dim)),
                 rng.randint(1, 7)) for _ in range(8)]
    point_reads = []
    value_at = LazyConfig.value_at

    def counted_value_at(self, x):
        point_reads.append(x)
        return value_at(self, x)
    monkeypatch.setattr(LazyConfig, "value_at", counted_value_at)
    for view, want in ((solve_transfer(phi, psi, source, V).convolve(
                            [(t, 1)]), shifted),
                       (apply_poly(f, solve_transfer(phi, psi, source,
                                                     V)), convolved)):
        assert isinstance(view, LazyConfig)
        box = view.values_on_box(lo, hi)
        lines = view.values_on_segments(segments)
        assert not point_reads
        assert box == [want(x) for x in box_points(lo, hi)]
        assert lines == [[want(x) for x in segment_points(*seg)]
                         for seg in segments]
        assert [view.value_at(x) for x in box_points(lo, hi)] == box
        point_reads.clear()  # a transfer view's own point reads


# ---------------------------------------------------------------------------
# the kept box of a transfer view

def _integer_transfer_cases():
    """(phi, psi, source, V) with integer values: the integer cases of
    _box_transfer_cases in dim 2 and two in dim 3."""
    cases = [case for i, case in enumerate(_box_transfer_cases())
             if i not in (2, 3, 7, 8)]
    src3 = periodic_from_function(
        3, [(0, 1, 0), (2, 0, 0), (0, 0, 3)], lambda r: r[0] + 2 * r[2] + 1)
    cases.append((difference_poly((1, 0, 1)), difference_poly((0, 1, 0)),
                  src3, TRIVIAL3))
    src3b = periodic_from_function(
        3, [(0, 0, 1), (2, 0, 0), (0, 3, 0)], lambda r: r[0] - r[1])
    cases.append((difference_poly((1, -1, 0)), difference_poly((0, 0, 1)),
                  src3b, SubspaceBasis(3, [(1, 0, 0)])))
    return cases


@st.composite
def _box_sequences(draw, dim):
    """Boxes near [-10, 10]^dim, each inside, overlapping, reaching past
    one corner of, apart from or equal to the one before it, or
    anywhere."""
    def box_at(lo, widths):
        return lo, tuple(a + w for a, w in zip(lo, widths))

    coord, width = st.integers(-10, 6), st.integers(0, 4)
    boxes = [box_at(tuple(draw(coord) for _ in range(dim)),
                    tuple(draw(width) for _ in range(dim)))]
    for _ in range(draw(st.integers(1, 6))):
        lo, hi = boxes[-1]
        kind = draw(st.sampled_from(("inside", "overlap", "past", "apart",
                                     "same", "anywhere")))
        if kind == "past":  # one corner inside, the other beyond
            reach = [draw(st.integers(0, 2)) for _ in range(dim)]
            reach[draw(st.integers(0, dim - 1))] += 1
            if draw(st.booleans()):
                boxes.append((lo, vadd(hi, reach)))
            else:
                boxes.append((vsub(lo, reach), hi))
        elif kind == "inside":
            sub_lo = tuple(draw(st.integers(a, b)) for a, b in zip(lo, hi))
            boxes.append((sub_lo, tuple(draw(st.integers(a, b))
                                        for a, b in zip(sub_lo, hi))))
        elif kind in ("overlap", "apart"):
            shift = [draw(st.integers(-2, 2)) for _ in range(dim)]
            if kind == "apart":  # towards the origin along the first axis
                gap = hi[0] - lo[0] + 1 + draw(st.integers(0, 3))
                shift[0] = -gap if lo[0] > 0 else gap
            boxes.append((vadd(lo, shift), vadd(hi, shift)))
        elif kind == "same":
            boxes.append((lo, hi))
        else:
            boxes.append(box_at(tuple(draw(coord) for _ in range(dim)),
                                tuple(draw(width) for _ in range(dim))))
    return boxes


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_transfer_box_reads_through_the_kept_box_match_points(data):
    cases = _integer_transfer_cases()
    phi, psi, source, V = cases[data.draw(st.integers(0, len(cases) - 1))]
    view = solve_transfer(phi, psi, source, V)
    ref = solve_transfer(phi, psi, source, V)
    for lo, hi in data.draw(_box_sequences(phi.dim)):
        want = pointwise_rasterize(ref, lo, hi).values
        got = view.values_on_box(lo, hi)
        assert got == want
        # the caller owns what it is handed: changing it changes no later
        # read, of this box or of the kept one
        got[0] = "changed"
        got.append("extra")
        assert view.values_on_box(lo, hi) == want
        assert view.values_on_box(*view.box[:2]) == \
            pointwise_rasterize(ref, *view.box[:2]).values


def test_transfer_box_read_of_an_empty_box_keeps_the_box():
    phi, psi, source, V = _box_transfer_cases()[0]
    view = solve_transfer(phi, psi, source, V)
    kept = view.values_on_box((-3, -3), (3, 3))
    assert view.values_on_box((2, 2), (1, 1)) == []
    assert view.box[:2] == ((-3, -3), (3, 3))
    assert view.values_on_box((-3, -3), (3, 3)) == kept


def _seeded_torus_input(seed, family):
    """A 12x12-periodic input with seeded values, one summand invariant
    along each vector of the family."""
    rng = random.Random(seed)
    parts = []
    for a, b in family:
        table = [rng.randint(-3, 3) for _ in range(12)]
        parts.append(periodic_from_function(
            2, [(12, 0), (0, 12)],
            lambda r, a=a, b=b, t=table: t[(b * r[0] - a * r[1]) % 12]))
    return add_views(parts)


@pytest.mark.parametrize("seed", range(3))
def test_verify_and_rasterize_compute_each_transfer_box_once(monkeypatch,
                                                             seed):
    family = GUARD_FAMILIES[seed]
    c = _seeded_torus_input(seed, family)
    phis = [difference_poly(v) for v in family]
    lo, hi = (-9, -8), (8, 10)
    dec = decompose_product(phis, c, TRIVIAL2)
    computed = []
    compute_box = _TransferEvaluator._compute_box

    def counted_compute_box(self, lo, hi):
        computed.append(self)
        return compute_box(self, lo, hi)
    monkeypatch.setattr(_TransferEvaluator, "_compute_box",
                        counted_compute_box)
    report = dec.verify_on_window(lo, hi)
    boxes = [rasterize(comp.view, lo, hi) for comp in dec.components]
    monkeypatch.undo()
    assert report["ok"]
    transfer = [comp.view for comp in dec.components
                if isinstance(comp.view, _TransferEvaluator)]
    assert len(transfer) == 2
    # the residual and the component files read the kept grid box; an
    # inner view read as a source may compute a box of its own
    assert [id(view) for view in computed if view in transfer] \
        == list(map(id, transfer))
    ref = decompose_product(phis, c, TRIVIAL2)
    assert boxes == [pointwise_rasterize(comp.view, lo, hi)
                     for comp in ref.components]


# ---------------------------------------------------------------------------
# one convolution path: a combination reads each view once

def _combination_pool(dim):
    """Fresh views on Z^dim for combinations: a window with room around
    the boxes read, a periodic input, a fiber sum and a Fraction-valued
    function view; in dim 2 an integer and a Fraction transfer view, in
    dim 3 two Fraction ones, and a combination of a transfer view."""
    periodic = periodic_from_function(
        dim, [(3,) + (0,) * (dim - 1)] + [
            tuple(int(i == j) * (2 + i) for j in range(dim))
            for i in range(1, dim)], lambda r: r[0] - 2 * r[-1] + 1)
    e0 = (1,) + (0,) * (dim - 1)
    pool = [rasterize(periodic, (-12,) * dim, (12,) * dim), periodic,
            FiberSum(dim, [make_fiber((0,) * dim, e0, [2, -1, 3]),
                           make_fiber((0,) * (dim - 1) + (1,), e0, [1, 4])]),
            FunctionView(dim, lambda x: Fraction(x[0] - x[-1], 3))]
    if dim == 1:
        return pool
    cases = _box_transfer_cases()
    views = [solve_transfer(*cases[i])
             for i in ((1, 2) if dim == 2 else (7, 8))]
    return pool + views + [add_views([views[0], pool[2]])]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_combination_box_read_matches_per_part_reference(data):
    dim = data.draw(st.integers(1, 3))
    pool = _combination_pool(dim)
    vec = st.tuples(*[st.integers(-3, 3)] * dim)
    parts = data.draw(st.lists(st.tuples(
        st.sampled_from(pool), st.integers(-3, 3), st.none() | vec),
        min_size=1, max_size=6))
    lo = data.draw(st.tuples(*[st.integers(-4, 4)] * dim))
    hi = tuple(a + s for a, s in zip(lo, data.draw(
        st.tuples(*[st.integers(0, 4)] * dim))))
    got = _Combination(dim, parts).values_on_box(lo, hi)
    want = reference_combination_values(parts, lo, hi)
    assert got == want
    assert list(map(type, got)) == list(map(type, want))


def test_combination_reads_a_transfer_view_once_per_box(monkeypatch):
    phi, psi, source, V = _box_transfer_cases()[1]
    view = solve_transfer(phi, psi, source, V)
    f = LaurentPoly(2, {(0, 0): 2, (1, 0): -1, (0, -2): 3})
    computed = []
    compute_box = _TransferEvaluator._compute_box

    def counted_compute_box(self, lo, hi):
        computed.append((lo, hi))
        return compute_box(self, lo, hi)
    monkeypatch.setattr(_TransferEvaluator, "_compute_box",
                        counted_compute_box)
    lo, hi = (-4, -3), (5, 6)
    got = apply_poly(f, view).values_on_box(lo, hi)
    assert computed == [((-5, -3), (5, 8))]  # [lo, hi] grown by supp(f)
    monkeypatch.undo()
    ref = solve_transfer(phi, psi, source, V)
    assert got == reference_combination_values(
        [(ref, k, e) for e, k in f.terms()], lo, hi)


def _old_translate(c, t):
    """The per-class translation rules that the monomial convolution
    replaced."""
    if isinstance(c, WindowConfig):
        return WindowConfig(vadd(c.lo, t), vadd(c.hi, t), c.values)
    if isinstance(c, PeriodicConfig):
        lo, hi = c.residue_box
        return PeriodicConfig(c.dim, c.basis,
                              c.values_on_box(vsub(lo, t), vsub(hi, t)))
    if isinstance(c, FiberSum):
        return FiberSum(c.dim, _fiber_pieces_sum(
            [(f, t, 1) for f in c.fibers]))
    return _Combination(c.dim, [(c, 1, t)])


@pytest.mark.parametrize("kind", ["WindowConfig", "PeriodicConfig",
                                  "FiberSum", "_Combination",
                                  "_TransferEvaluator"])
def test_translate_is_the_monomial_convolution(kind):
    c = _protocol_views()[kind]
    for t in ((0, 0), (3, -2), (-5, 7), (1, 1)):
        got, old = c.convolve([(t, 1)]), _old_translate(c, t)
        assert type(got) is type(old)
        if isinstance(c, LazyConfig):
            assert got.parts == old.parts == [(c, 1, t)]
            lo, hi = (-4, -3), (3, 5)
            assert got.values_on_box(lo, hi) == old.values_on_box(lo, hi)
        else:
            assert got == old


@pytest.mark.parametrize("reversed_axis", [0, -1])
@pytest.mark.parametrize("kind", ["WindowConfig", "PeriodicConfig",
                                  "FiberSum", "_Combination",
                                  "_TransferEvaluator", "shifted",
                                  "periodic-1d"])
def test_empty_boxes_read_as_nothing(kind, reversed_axis):
    views = _protocol_views()
    views["shifted"] = apply_poly(
        LaurentPoly(2, {(0, 0): 1, (2, -1): -1}), views["_TransferEvaluator"])
    views["periodic-1d"] = PeriodicConfig(1, [(5,)], [1, 2, 3, 4, 5])
    c = views[kind]
    lo, hi = [-3, -2][:c.dim], [4, 5][:c.dim]
    lo[reversed_axis], hi[reversed_axis] = 0, -2
    assert c.values_on_box(tuple(lo), tuple(hi)) == []
