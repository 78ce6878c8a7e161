import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd
from operator import add, mul

import pytest
from hypothesis import given, settings, strategies as st

from perdec.config import (FiberSum, PeriodicConfig, Verdict, WindowConfig,
                           apply_poly, make_fiber, period_lattice, rasterize)
from perdec.errors import (EmptyRegionError, LatticeError, PerdecError,
                           PreconditionError)
from perdec.laurent import LaurentPoly
from perdec.lattice import SubspaceBasis, primitive, rank_rational
from perdec.decompose import select_periodizer
from perdec.tiling import (Tile, cotiler_decompose, independent,
                           tile_polynomial, verify_cotiler)

from helpers import (guard_periodic_reads, periodic_from_function,
                     random_hnf_basis, reference_verify_cotiler)

CHECKER = PeriodicConfig(2, [(2, 0), (0, 2)], [0, 1, 1, 0])
DOMINO_X = Tile(2, [(0, 0), (1, 0)])
DOMINO_Y = Tile(2, [(0, 0), (0, 1)])


def test_tile_polynomial_examples():
    assert tile_polynomial(Tile(2, [(0, 0)])) == LaurentPoly.constant(2, 1)
    assert tile_polynomial(DOMINO_X) == LaurentPoly(
        2, {(0, 0): 1, (-1, 0): 1})
    rng = random.Random(1)
    for _ in range(20):
        cells = {(rng.randint(-3, 3), rng.randint(-3, 3))
                 for _ in range(rng.randint(1, 6))}
        tile = Tile(2, cells)
        assert len(tile_polynomial(tile)) == len(tile)


def test_tile_rejects_duplicates_and_empty():
    with pytest.raises(PreconditionError):
        Tile(2, [(0, 0), (0, 0)])
    with pytest.raises(PreconditionError):
        Tile(2, [])


def test_verify_cotiler_parity():
    xm2 = periodic_from_function(2, [(2, 0), (0, 1)], lambda r: r[0] % 2)
    verdict = verify_cotiler(DOMINO_X, xm2)
    assert verdict.holds and verdict.exact


def test_verify_cotiler_interval():
    interval = Tile(1, [(0,), (1,), (2,)])
    c = periodic_from_function(1, [(3,)],
                               lambda r: 1 if r[0] == 0 else 0)
    verdict = verify_cotiler(interval, c)
    assert verdict.holds and verdict.exact


def test_verify_cotiler_constant_one_fails():
    assert not verify_cotiler(DOMINO_X, PeriodicConfig.constant(2, 1)).holds


def test_verify_cotiler_window_evidence():
    xm2 = periodic_from_function(2, [(2, 0), (0, 1)], lambda r: r[0] % 2)
    w = rasterize(xm2, (-5, -5), (5, 5))
    verdict = verify_cotiler(DOMINO_X, w)
    assert verdict.holds and not verdict.exact and verdict.region is not None


def test_verify_cotiler_rejects_nonbinary():
    with pytest.raises(PreconditionError):
        verify_cotiler(DOMINO_X, PeriodicConfig.constant(2, 2))


def test_verify_cotiler_on_fiber_sums():
    # a fiber sum is decided exactly: in one dimension a single fiber can
    # cover Z, in two no finite set of lines covers Z^2
    evens = FiberSum(1, [make_fiber((0,), (1,), [1, 0])])
    verdict = verify_cotiler(Tile(1, [(0,), (1,)]), evens)
    assert verdict.holds and verdict.exact
    verdict = verify_cotiler(Tile(1, [(0,), (2,)]), evens)
    assert not verdict.holds and verdict.exact
    lines = FiberSum(2, [make_fiber((0, 0), (1, 0), [1]),
                         make_fiber((0, 1), (1, 0), [1])])
    verdict = verify_cotiler(DOMINO_Y, lines)
    assert not verdict.holds and verdict.exact
    with pytest.raises(PreconditionError, match="must be 0/1"):
        verify_cotiler(Tile(1, [(0,), (1,)]),
                       FiberSum(1, [make_fiber((0,), (1,), [2, 0])]))


def _cotiling_case(rng, dim):
    """A tile and a 0/1 window or periodic input it may tile with.

    The tile is L cells off + k*v; [lam.x = r mod L] is a co-tiler of it
    whenever lam.v is prime to L, and it is periodic under any lattice
    inside L*Z^d.  Some cases take a random tile or random 0/1 values, and
    some change one value, so covers and non-covers both occur; windows
    may be too small to keep a region.
    """
    wide = rng.random() < 0.1  # two-byte digits and beyond
    if wide:
        dim = min(dim, 2)
        L = rng.choice((255, 256, 257, 300))
        v = (1,) + (0,) * (dim - 1)
    else:
        L = rng.randint(1, 4)
        v = (0,) * dim
        while not any(v):
            v = tuple(rng.randint(-2, 2) for _ in range(dim))
        v = primitive(v)  # then some lam has lam.v = 1 mod L
    lam = (0,) * dim
    while gcd(sum(map(mul, lam, v)), L) != 1:
        lam = tuple(rng.randrange(L) for _ in range(dim))
    off = tuple(rng.randint(-3, 3) for _ in range(dim))
    cells = {tuple(o + k * s for o, s in zip(off, v)) for k in range(L)}
    if not wide and rng.random() < 0.25:
        cells = {tuple(rng.randint(-3, 3) for _ in range(dim))
                 for _ in range(rng.randint(1, 6))}
    tile = Tile(dim, cells)
    if wide:  # L * e_0 and the other unit vectors
        basis = [(L,) + (0,) * (dim - 1)] + [
            tuple(int(i == j) for j in range(dim)) for i in range(1, dim)]
    else:
        basis = [tuple(L * x for x in row)
                 for row in random_hnf_basis(rng, dim, 2 ** dim)]
    r = rng.randrange(L)
    noise = rng.random() < 0.2
    c = periodic_from_function(
        dim, basis, lambda x: rng.randint(0, 1) if noise
        else int(sum(map(mul, lam, x)) % L == r))
    if rng.random() < 0.3:
        values = list(c.values)
        values[rng.randrange(len(values))] ^= 1
        c = PeriodicConfig(dim, basis, values)
    if rng.random() < 0.5:
        lo = tuple(rng.randint(-6, 3) for _ in range(dim))
        hi = tuple(a + (rng.randint(L - 1, L + 8) if wide and i == 0
                        else rng.randint(0, 9)) for i, a in enumerate(lo))
        c = rasterize(c, lo, hi)
        if rng.random() < 0.2:
            values = list(c.values)
            values[rng.randrange(len(values))] ^= 1
            c = WindowConfig(lo, hi, values)
    return tile, c


def _outcome(check, tile, c):
    try:
        return check(tile, c)
    except PerdecError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 3))
def test_verify_cotiler_matches_the_product_and_count(seed, dim):
    tile, c = _cotiling_case(random.Random(seed), dim)
    assert _outcome(verify_cotiler, tile, c) == \
        _outcome(reference_verify_cotiler, tile, c)


def test_cotiling_cases_cover_every_outcome():
    # the differential test above sees covers and non-covers, exact and on
    # windows, wide tiles, and too-small windows
    seen = Counter()
    for seed in range(200):
        rng = random.Random(seed)
        tile, c = _cotiling_case(rng, rng.randint(1, 3))
        out = _outcome(reference_verify_cotiler, tile, c)
        if isinstance(out, Verdict):
            seen[out.holds, out.exact, len(tile) >= 256] += 1
        else:
            seen[out[0]] += 1
    assert all(seen[key] for key in product((True, False), repeat=3))
    assert seen[EmptyRegionError]


def test_a_tile_cell_moved_by_a_far_period_keeps_its_verdict(monkeypatch):
    # a periodic input is read on its residue box grown by the centered
    # residues of the cells, so a cell 10**6 periods away reads what its
    # residue does
    cases = 0
    for seed in range(300):
        rng = random.Random(seed)
        tile, c = _cotiling_case(rng, rng.randint(1, 3))
        if not isinstance(c, PeriodicConfig):
            continue
        cells = tile.sorted_cells()
        i = rng.randrange(len(cells))
        k = rng.choice((-1, 1)) * 10 ** 6
        far = [k * sum(col) for col in zip(*c.lattice_rows)]
        cells[i] = tuple(map(add, cells[i], far))
        with monkeypatch.context() as m:
            guard_periodic_reads(m)
            assert verify_cotiler(Tile(tile.dim, cells), c) == \
                verify_cotiler(tile, c)
        cases += 1
    assert cases >= 40


def test_verify_cotiler_digit_sums_do_not_carry():
    # 257 cells two apart: the window's two region points see 257 ones and
    # none, and 257 + 0 * 256 is the one-byte packing of the row (1, 1)
    tile = Tile(1, [(2 * k,) for k in range(257)])
    w = WindowConfig((0,), (513,), [int(x % 2 == 0 and x <= 512)
                                    for x in range(514)])
    verdict = verify_cotiler(tile, w)
    assert verdict == reference_verify_cotiler(tile, w)
    assert not verdict.holds and verdict.region == ((0,), (1,))


def test_verify_cotiler_nonbinary_message_keeps_its_text():
    # the differential test only draws 0/1 values
    tile = Tile(2, [(0, 0), (4, 0), (0, -3)])
    for c in (WindowConfig((0, 0), (9, 9), [0, 2, 1, 3, -1] * 20),
              PeriodicConfig(2, [(2, 0), (0, 2)], [1, 0, 5, 1])):
        with pytest.raises(PreconditionError) as check_error:
            verify_cotiler(tile, c)
        with pytest.raises(PreconditionError) as reference_error:
            reference_verify_cotiler(tile, c)
        assert str(check_error.value) == str(reference_error.value)
    assert str(check_error.value) == "co-tiler values must be 0/1; found [5]"


def test_cotiler_polynomial_periodizes():
    # the tile polynomial of a co-tiler is a periodizer: the product is the
    # constant-1 configuration, which is strongly periodic
    xm2 = periodic_from_function(2, [(2, 0), (0, 1)], lambda r: r[0] % 2)
    out = apply_poly(tile_polynomial(DOMINO_X), xm2)
    assert all(v == 1 for v in out.values)
    assert period_lattice(out) == ((1, 0), (0, 1))


def test_independent_examples():
    ok, witness = independent([DOMINO_X, DOMINO_Y])
    assert ok and witness is None
    ok, witness = independent([Tile(2, [(0, 0), (1, 0), (2, 0)]),
                               Tile(2, [(0, 0), (4, 0)])])
    assert not ok and witness == ((1, 0), (4, 0))
    ok, witness = independent([Tile(2, [(0, 0), (3, 7)])])
    assert ok


def test_independent_requires_normalization():
    with pytest.raises(PreconditionError):
        independent([Tile(2, [(1, 0), (2, 0)])])


def test_independent_agrees_with_pure_rational_reimplementation():
    rng = random.Random(5)
    for _ in range(40):
        tiles = []
        for _ in range(2):
            cells = {(0, 0)}
            while len(cells) < rng.randint(2, 4):
                cells.add((rng.randint(-2, 2), rng.randint(-2, 2)))
            tiles.append(Tile(2, cells))
        got, witness = independent(tiles)
        choices = [[c for c in t.sorted_cells() if any(c)] for t in tiles]
        expect = True
        expect_witness = None
        for choice in product(*choices):
            if rank_rational(choice) < 2:
                expect = False
                expect_witness = choice
                break
        assert got == expect
        assert witness == expect_witness


def test_select_periodizer():
    f1, f2 = tile_polynomial(DOMINO_X), tile_polynomial(DOMINO_Y)
    assert select_periodizer([f1, f2], SubspaceBasis(2, [(1, 0)])) == f2
    assert select_periodizer([f1, f2], SubspaceBasis.trivial(2)) == f1
    assert select_periodizer([f1], SubspaceBasis.trivial(2)) == f1
    with pytest.raises(PreconditionError) as err:
        select_periodizer([f1, f1], SubspaceBasis(2, [(1, 0)]))
    assert str(err.value) == (
        "no periodizer meets the subspace spanned by [[1, 0]] only at the "
        "origin: member 0 has the support point (-1, 0) in it; member 1 "
        "has the support point (-1, 0) in it")
    assert "independent()" not in str(err.value)


def test_cotiler_decompose_checkerboard():
    dec = cotiler_decompose([DOMINO_X, DOMINO_Y], CHECKER)
    report = dec.verify_on_window((-10, -10), (10, 10))
    assert report["ok"]
    for comp in dec.components:
        assert rank_rational(comp.periods) == 2


def test_cotiler_decompose_single_tile_reduces_to_level_one():
    xm2 = periodic_from_function(2, [(2, 0), (0, 1)], lambda r: r[0] % 2)
    dec = cotiler_decompose([DOMINO_X], xm2)
    assert dec.verify_on_window((-8, -8), (8, 8))["ok"]
    for comp in dec.components:
        assert len(comp.periods) >= 1


def test_cotiler_decompose_rejects_dependent_tiles():
    bad = Tile(2, [(0, 0), (2, 0)])
    with pytest.raises(PreconditionError) as err:
        cotiler_decompose([DOMINO_X, bad], CHECKER)
    assert "dependent choice" in str(err.value)


def test_cotiler_decompose_rejects_non_cotiler():
    ones = PeriodicConfig.constant(2, 1)
    with pytest.raises(PreconditionError):
        cotiler_decompose([DOMINO_X, DOMINO_Y], ones)


def test_tile_refuses_non_integral_cells():
    with pytest.raises(LatticeError, match="non-integer entry 1/2"):
        Tile(2, [(Fraction(1, 2), 0), (1, 0)])
    tile = Tile(2, [(Fraction(2), 0), (1, 0)])
    assert tile.cells == {(2, 0), (1, 0)}
    assert all(type(x) is int for cell in tile.cells for x in cell)
