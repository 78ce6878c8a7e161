"""Translational tilings: tiles, co-tiler verification, independence.

A tile is a finite cell set D; a binary configuration c tiles by D when
the indicator polynomial of -D times c is the constant-1 function, i.e.
every translate of D covers exactly one cell of c's support.  Independent
tile families admit a common periodizer transversal to any low-dimensional
subspace, which feeds the k-periodic decomposition pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .config import (FiberSum, PeriodicConfig, Verdict, WindowConfig,
                     apply_poly, box_strides, erode_box, grow_box,
                     row_sources)
from .decompose import Bounds, Decomposition, k_periodic_decompose
from .errors import DimensionMismatch, PreconditionError
from .laurent import LaurentPoly, support_in_subspace
from .lattice import (SubspaceBasis, rank_rational, vneg, zero_vector)


@dataclass(frozen=True)
class Tile:
    """A finite nonempty set of grid cells."""
    dim: int
    cells: frozenset

    def __init__(self, dim, cells):
        cells = list(cells)
        object.__setattr__(self, "dim", int(dim))
        seen = set()
        for cell in cells:
            cell = tuple(int(x) for x in cell)
            if len(cell) != self.dim:
                raise PreconditionError("tile cell of wrong dimension")
            if cell in seen:
                raise PreconditionError(f"duplicate cell {cell}")
            seen.add(cell)
        if not seen:
            raise PreconditionError("a tile needs at least one cell")
        object.__setattr__(self, "cells", frozenset(seen))

    @property
    def normalized(self):
        return zero_vector(self.dim) in self.cells

    def sorted_cells(self):
        return sorted(self.cells)

    def __len__(self):
        return len(self.cells)


def tile_polynomial(tile: Tile) -> LaurentPoly:
    """Indicator polynomial of the negated cell set, all coefficients one."""
    return LaurentPoly(tile.dim, {vneg(cell): 1 for cell in tile.cells})


def _covers(terms, grid, lo, strides, out_lo, out_hi):
    """Whether sum_e c(u - e) = 1 for every u in [out_lo, out_hi], from the
    0/1 table `grid` of c over a box with corner lo and strides.

    Each cell packs into one little-endian digit wide enough that a sum of
    len(terms) digits never carries, so a row's sum is one integer
    addition per term, compared with the row of ones.
    """
    w = (len(terms).bit_length() + 7) // 8
    packed = bytes(grid)
    if w > 1:
        packed = bytearray(w * len(grid))
        packed[::w] = bytes(grid)
    starts, offsets, n = row_sources(terms, lo, strides, out_lo, out_hi)
    starts = [w * a for a, _ in starts]
    ones = int.from_bytes(b"\1".ljust(w, b"\0") * n, "little")
    n *= w
    for off in offsets:
        off *= w
        if sum(int.from_bytes(packed[a + off:a + off + n], "little")
               for a in starts) != ones:
            return False
    return True


def _require_binary(values):
    bad = set(values) - {0, 1}
    if bad:
        raise PreconditionError(
            f"co-tiler values must be 0/1; found {sorted(bad)[:4]}")


def verify_cotiler(tile: Tile, c) -> Verdict:
    """Whether c is a co-tiler of the tile: tile polynomial times c is 1.

    Exact for periodic and fiber views; window views give a verdict on the
    eroded region only, never extrapolated beyond it.  Windows and periodic
    views are decided row by row from packed values (`_covers`): a window
    on its own box, a periodic view on its residue box grown by the tile's
    centered residues.
    """
    f = tile_polynomial(tile)
    if isinstance(c, FiberSum):
        _require_binary(v for fiber in c.fibers for v in fiber.vals)
        fc = apply_poly(f, c)
        if fc.dim == 1:
            return Verdict.exactly(
                len(fc.fibers) == 1 and fc.fibers[0].vals == (1,))
        return Verdict.exactly(False)  # finitely many lines never cover Z^d
    if not isinstance(c, (PeriodicConfig, WindowConfig)):
        raise PreconditionError("co-tiler check needs a concrete view")
    _require_binary(c.values)
    if f.dim != c.dim:
        raise DimensionMismatch("polynomial/configuration dimension mismatch")
    if isinstance(c, WindowConfig):
        lo, hi = erode_box(c.lo, c.hi, f.support())
        return Verdict.on_window(
            _covers(f.terms(), c.values, c.lo, c.strides, lo, hi), lo, hi)
    terms = [(c.centered(e), k) for e, k in f.terms()]
    lo, hi = c.residue_box
    glo, ghi = grow_box(lo, hi, [e for e, _ in terms])
    return Verdict.exactly(_covers(terms, c.values_on_box(glo, ghi), glo,
                                   box_strides(glo, ghi), lo, hi))


def independent(tiles) -> tuple:
    """Brute-force independence test with a witness.

    Tiles must be normalized (contain the origin).  Every choice of one
    nonzero cell per tile is rank-tested over the rationals; the result is
    (True, None) or (False, first dependent choice) in lexicographic choice
    order.
    """
    tiles = list(tiles)
    if not tiles:
        raise PreconditionError("need at least one tile")
    for tile in tiles:
        if not tile.normalized:
            raise PreconditionError(
                "independence is defined for normalized tiles (0 in D)")
    k = len(tiles)
    if k > tiles[0].dim:
        raise PreconditionError("more tiles than grid dimensions")
    choice_sets = [
        [cell for cell in tile.sorted_cells() if any(cell)]
        for tile in tiles]
    for cs in choice_sets:
        if not cs:
            raise PreconditionError("a tile has no nonzero cell")
    for choice in product(*choice_sets):
        if rank_rational(choice) < k:
            return False, choice
    return True, None


def select_periodizer(fs, V: SubspaceBasis) -> LaurentPoly:
    """First polynomial whose support meets V exactly at the origin.

    For an independent family with 0 in every support such a member exists
    whenever dim V < family size.  When none does, the error names V by
    its integer rows and, for each member, a nonzero support point in V.
    """
    inside = []
    for i, f in enumerate(fs):
        origin = zero_vector(f.dim)
        if f.coefficient(origin) == 0:
            raise PreconditionError("periodizer without the origin in support")
        met = support_in_subspace(f, V) - {origin}
        if not met:
            return f
        inside.append(f"member {i} has the support point {min(met)} in it")
    raise PreconditionError(
        "no periodizer meets the subspace spanned by "
        f"{[list(r) for r in V.integer_rows()]} only at the origin: "
        + "; ".join(inside))


def cotiler_decompose(tiles, c, bounds: Bounds | None = None) -> Decomposition:
    """Decompose a common co-tiler of independent tiles into k-periodic parts.

    Verifies normalization, independence (with witness on failure) and the
    co-tiling property for every tile, then drives the k-periodic pipeline
    with the tile polynomials as the periodizer family.
    """
    tiles = list(tiles)
    ok, witness = independent(tiles)
    if not ok:
        raise PreconditionError(
            f"tiles are not independent; dependent choice {witness}")
    polys = [tile_polynomial(t) for t in tiles]
    for tile in tiles:
        if not verify_cotiler(tile, c).holds:
            raise PreconditionError(
                f"input is not a co-tiler of the tile with cells "
                f"{tile.sorted_cells()}")
    return k_periodic_decompose(
        c, len(tiles), lambda V: select_periodizer(polys, V), bounds)
