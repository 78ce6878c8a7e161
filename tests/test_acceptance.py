"""Acceptance suite: eight criteria, each printed as one pass/fail line.

Every criterion carries its own time budget, and all tolerances are exact
equalities (the whole library is integer/rational arithmetic).  The
pass/fail lines bypass output capture so they appear in any run mode.
"""

import random
import time
from math import gcd

import pytest

from perdec.config import (FiberSum, PeriodicConfig, WindowConfig, add_views,
                           apply_poly, box_points, is_annihilated,
                           make_fiber, period_lattice, rasterize)
from perdec.decompose import (Bounds, decompose_product,
                              solve_transfer,
                              verify_transfer)
from perdec.errors import EmptyRegionError
from perdec.laurent import difference_poly, poly_product
from perdec.lattice import (SubspaceBasis, hnf_rows, in_lattice,
                            lattice_determinant, primitive, rank_rational,
                            vscale)
from perdec.sparse import (check_sparseness, fiber_closed_form_constant,
                           sparse_full)
from perdec.tiling import (Tile, cotiler_decompose, independent,
                           verify_cotiler)

from helpers import (naive_convolution, periodic_from_function,
                     random_fiber_family, random_periodic, random_poly,
                     window_from_function)

CHECKER = PeriodicConfig(2, [(2, 0), (0, 2)], [0, 1, 1, 0])


def _report(capfd, num, name, t0, budget):
    elapsed = time.monotonic() - t0
    verdict = "PASS" if elapsed < budget else "FAIL"
    with capfd.disabled():
        # the line must show in every run mode, not only under -s
        print(f"[criterion {num}] {verdict} {name} "
              f"({elapsed:.2f}s, budget {budget}s)", flush=True)
    assert elapsed < budget, f"criterion {num} exceeded {budget}s"


def _random_primitive(rng, dim, span=2):
    while True:
        v = tuple(rng.randint(-span, span) for _ in range(dim))
        if any(v):
            return primitive(v)


def test_criterion_1_ring_laws(capfd):
    t0 = time.monotonic()
    rng = random.Random(101)
    for _ in range(1000):
        dim = rng.randint(1, 3)
        f = random_poly(rng, dim)
        g = random_poly(rng, dim)
        h = random_poly(rng, dim)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
    _report(capfd, 1, "ring laws on 1000 random triples", t0, 5)


def test_criterion_2_annihilation_iff_periodicity(capfd):
    t0 = time.monotonic()
    rng = random.Random(202)
    discrepancies = 0
    for _ in range(200):
        dim = rng.choice((2, 3))
        c = random_periodic(rng, dim, 64)
        rows = period_lattice(c)
        for _ in range(50):
            v = tuple(rng.randint(-4, 4) for _ in range(dim))
            if not any(v):
                v = (1,) + (0,) * (dim - 1)
            lhs = is_annihilated(difference_poly(v), c)
            assert lhs.exact
            if lhs.holds != in_lattice(v, rows):
                discrepancies += 1
    assert discrepancies == 0
    _report(capfd, 2, "annihilation = period-lattice membership, 200x50 checks",
            t0, 10)


def _transfer_instance(rng):
    dim = rng.choice((2, 3))
    while True:
        v1 = _random_primitive(rng, dim)
        v2 = _random_primitive(rng, dim)
        if primitive(v1) != primitive(v2):
            break
    k1, k2 = rng.randint(1, 3), rng.randint(1, 3)
    phi = difference_poly(vscale(k1, v1))
    psi = difference_poly(vscale(k2, v2))

    if dim == 3 and rng.random() < 0.5:
        while True:
            b = _random_primitive(rng, 3)
            if rank_rational([v1, v2, b]) == 3:
                break
        V = SubspaceBasis(3, [b])
    else:
        V = SubspaceBasis.trivial(dim)

    use_fibers = V.rank == 0 and rng.random() < 0.5
    if use_fibers:
        periods = [p for p in (1, 2, 3) if k2 % p == 0]
        fibers = []
        for _ in range(rng.randint(1, 3)):
            anchor = tuple(rng.randint(-3, 3) for _ in range(dim))
            p = rng.choice(periods)
            vals = [rng.randint(-4, 4) for _ in range(p)]
            if all(x == 0 for x in vals):
                vals[0] = 1
            fibers.append(make_fiber(anchor, v2, vals))
        cprime = FiberSum(dim, fibers)
    else:
        while True:
            basis = [vscale(k2, v2)] + [
                tuple(rng.randint(-2, 2) for _ in range(dim))
                for _ in range(dim - 1)]
            rows = hnf_rows(basis, dim)
            if len(rows) == dim and lattice_determinant(rows, dim) <= 64:
                break
        cprime = periodic_from_function(
            dim, basis, lambda r: rng.randint(-5, 5))
    return phi, psi, cprime, V, dim


def test_criterion_3_transfer_equation(capfd):
    t0 = time.monotonic()
    rng = random.Random(303)
    for _ in range(100):
        phi, psi, cprime, V, dim = _transfer_instance(rng)
        sol = solve_transfer(phi, psi, cprime, V)
        lo = (-20, -20) + (0,) * (dim - 2)
        hi = (20, 20) + (0,) * (dim - 2)
        report = verify_transfer(sol, lo, hi)
        assert report["ok"], report
        for x in box_points(lo, hi):
            assert isinstance(sol.value_at(x), int)
    _report(capfd, 3, "transfer identities + integrality on 100 instances "
            "(41x41 windows)", t0, 30)


def _roundtrip_instance(rng):
    pool = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)]
    m = rng.randint(1, 3)
    dirs = rng.sample(pool, m)
    parts, factors = [], []
    for v in dirs:
        k = rng.randint(1, 3)
        while True:
            u = (rng.randint(-2, 2), rng.randint(-2, 2))
            basis = [vscale(k, v), u]
            rows = hnf_rows(basis, 2)
            if len(rows) == 2 and lattice_determinant(rows, 2) <= 12:
                break
        parts.append(periodic_from_function(
            2, basis, lambda r: rng.randint(-4, 4)))
        factors.append(difference_poly(vscale(k, v)))
    c = add_views(parts)
    if c.determinant > 1200:
        return None
    return c, factors


def test_criterion_4_decomposition_round_trip(capfd):
    t0 = time.monotonic()
    rng = random.Random(404)
    done = 0
    V0 = SubspaceBasis.trivial(2)
    while done < 50:
        inst = _roundtrip_instance(rng)
        if inst is None:
            continue
        c, factors = inst
        dec = decompose_product(factors, c, V0)
        lo, hi = (-30, -30), (29, 29)
        report = dec.verify_on_window(lo, hi)
        assert report["sum"], "component sum mismatch"
        assert all(report["annihilation"]), "component annihilation failed"
        done += 1
    _report(capfd, 4, "50 product decompositions verified on 60x60 windows", t0, 60)


def _family_instance(rng):
    pool = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (1, -2)]
    dirs = rng.sample(pool, rng.randint(2, 3))
    families = {}
    factors = []
    for d in dirs:
        fam = random_fiber_family(rng, 2, d, max_fibers=6, max_period=8)
        families[d] = fam
        period = 1
        for f in fam.fibers:
            period = period * f.period // gcd(period, f.period)
        factors.append(difference_poly(vscale(period, d)))
    c = add_views(list(families.values()))
    annihilator = poly_product(factors)
    return c, families, annihilator, dirs


def test_criterion_5_sparse_recovery(capfd):
    t0 = time.monotonic()
    rng = random.Random(505)
    for _ in range(100):
        c, families, annihilator, dirs = _family_instance(rng)
        recovered = sparse_full(c, annihilator, Bounds())
        by_dir = {}
        for fam in recovered:
            for fib in fam.fibers:
                by_dir.setdefault(fib.direction, []).append(fib)
        for d in dirs:
            got = FiberSum(2, by_dir.get(d, []))
            assert got == c.parallel_part(d), f"family {d} mismatch"
        total = add_views(recovered) if recovered else FiberSum.zero(2)
        # covering check set: all fiber lines near the origin plus off-line
        for x in box_points((-12, -12), (12, 12)):
            assert total.value_at(x) == c.value_at(x)
    _report(capfd, 5, "100 sparse fiber-family recoveries (exact)", t0, 60)


def test_criterion_6_checkerboard_tiling_pipeline(capfd):
    t0 = time.monotonic()
    tiles = [Tile(2, [(0, 0), (1, 0)]), Tile(2, [(0, 0), (0, 1)])]
    ok, witness = independent(tiles)
    assert ok and witness is None
    for tile in tiles:
        verdict = verify_cotiler(tile, CHECKER)
        assert verdict.holds and verdict.exact
    dec = cotiler_decompose(tiles, CHECKER)
    lo, hi = (-20, -20), (19, 19)
    report = dec.verify_on_window(lo, hi)
    assert report["ok"]
    for comp in dec.components:
        assert rank_rational(comp.periods) == 2
    _report(capfd, 6, "checkerboard tiling pipeline (40x40 verification)", t0, 5)


def test_criterion_7_convolution_differential(capfd):
    t0 = time.monotonic()
    rng = random.Random(707)
    done = 0
    while done < 500:
        kind = rng.choice(("window", "periodic", "fibersum"))
        if kind == "window":
            c = window_from_function(
                (-4, -4), (4, 4), lambda x: rng.randint(-5, 5))
        elif kind == "periodic":
            c = random_periodic(rng, 2, 16)
        else:
            c = random_fiber_family(rng, 2,
                                    rng.choice([(1, 0), (0, 1), (1, 1)]),
                                    max_fibers=3, max_period=4,
                                    anchor_range=3)
        f = random_poly(rng, 2, max_terms=4, exp_range=2)
        if f.is_zero():
            continue
        base = c if isinstance(c, WindowConfig) else \
            rasterize(c, (-4, -4), (4, 4))
        lo, hi, expected = naive_convolution(f.terms(), base)
        if any(a > b for a, b in zip(lo, hi)):
            with pytest.raises(EmptyRegionError):
                apply_poly(f, base)
            continue
        assert apply_poly(f, base).box == (lo, hi)
        out = apply_poly(f, c)
        for x in box_points(lo, hi):
            assert out.value_at(x) == expected[x]
        done += 1
    _report(capfd, 7, "apply_poly matches naive convolution on 500 instances "
            "(bit-exact)", t0, 30)


def test_criterion_8_sparseness_certificates(capfd):
    t0 = time.monotonic()
    # the constant-1 plane violates every linear budget immediately
    plane = PeriodicConfig.constant(2, 1)
    rep = check_sparseness(plane, 3, 4)
    assert not rep.ok and rep.violation is not None
    m, t = rep.violation
    count = sum(1 for x in box_points(tuple(v - m for v in t),
                                      tuple(v + m for v in t))
                if plane.value_at(x) != 0)
    assert count > 3 * m

    # every constructed fiber sum passes with its closed-form constant
    rng = random.Random(505)
    sums = []
    for _ in range(100):
        c, _, _, _ = _family_instance(rng)
        sums.append(c)
        rep = check_sparseness(c, max(fiber_closed_form_constant(c), 1), 2)
        assert rep.ok and (rep.exact or c.is_zero())

    # closure under sums: the combined constant certifies the sum
    rng2 = random.Random(808)
    for _ in range(100):
        a, b = rng2.sample(sums, 2)
        bound = fiber_closed_form_constant(a) + fiber_closed_form_constant(b)
        s = add_views([a, b])
        assert fiber_closed_form_constant(s) <= bound
        assert check_sparseness(s, max(bound, 1), 2).ok
    _report(capfd, 8, "sparseness certificates: violation, closed form, sum bound",
            t0, 60)
