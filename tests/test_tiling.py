import random
from itertools import product

import pytest

from perdec.config import (PeriodicConfig, apply_poly, period_lattice, rasterize)
from perdec.errors import PreconditionError
from perdec.laurent import LaurentPoly
from perdec.lattice import SubspaceBasis, rank_rational
from perdec.tiling import (Tile, cotiler_decompose, independent,
                           select_periodizer, tile_polynomial, verify_cotiler)

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
    xm2 = PeriodicConfig.from_function(2, [(2, 0), (0, 1)], lambda r: r[0] % 2)
    verdict = verify_cotiler(DOMINO_X, xm2)
    assert verdict.holds and verdict.exact


def test_verify_cotiler_interval():
    interval = Tile(1, [(0,), (1,), (2,)])
    c = PeriodicConfig.from_function(1, [(3,)],
                                     lambda r: 1 if r[0] == 0 else 0)
    verdict = verify_cotiler(interval, c)
    assert verdict.holds and verdict.exact


def test_verify_cotiler_constant_one_fails():
    assert not verify_cotiler(DOMINO_X, PeriodicConfig.constant(2, 1)).holds


def test_verify_cotiler_window_evidence():
    xm2 = PeriodicConfig.from_function(2, [(2, 0), (0, 1)], lambda r: r[0] % 2)
    w = rasterize(xm2, (-5, -5), (5, 5))
    verdict = verify_cotiler(DOMINO_X, w)
    assert verdict.holds and not verdict.exact and verdict.region is not None


def test_verify_cotiler_rejects_nonbinary():
    with pytest.raises(PreconditionError):
        verify_cotiler(DOMINO_X, PeriodicConfig.constant(2, 2))


def test_cotiler_polynomial_periodizes():
    # the tile polynomial of a co-tiler is a periodizer: the product is the
    # constant-1 configuration, which is strongly periodic
    xm2 = PeriodicConfig.from_function(2, [(2, 0), (0, 1)], lambda r: r[0] % 2)
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
    xm2 = PeriodicConfig.from_function(2, [(2, 0), (0, 1)], lambda r: r[0] % 2)
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
