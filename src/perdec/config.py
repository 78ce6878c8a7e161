"""Finite representations of integer-valued functions on Z^d.

Three concrete representations are provided:

* WindowConfig   -- values known only inside a box (a partial function;
                    nothing is assumed outside, never zero-padding),
* PeriodicConfig -- strongly periodic values, one per lattice residue,
* FiberSum       -- a finite sum of periodic fibers, each supported on a
                    single rational line.

LazyConfig is the abstract base of the lazy views of functions on all of
Z^d: combinations of shifted views (`_Combination`) and transfer
components.  Decomposition pipelines expose their components this way and
callers rasterize.  A combination reads each view once per box: a view
with one unshifted part on the box itself, any other on the box grown by
its shifts, its parts summed from that grid by `_convolve_rows`, the one
box convolution, which also convolves windows, reads sub-boxes (`sub_box`,
one term) and counts sparseness cubes (a summed-area table by its 2^d
corners).  It has two paths, chosen from its input alone: a table of
exact ints with some coefficient |k| != 1 whose sums fit a signed slot of
2, 4 or 8 bytes (max|v| * sum|k| < 2^(8w - 1)) is packed into one big
integer and summed by shifts; every other input (all |k| = 1, Fractions,
wider values) is summed row by row.

WindowConfig and PeriodicConfig keep one flat list of values in
`box_points` order: the window over its box, the periodic configuration
over its residue box [0, diag - 1] of canonical HNF residues.  Every
representation reads boxes (`values_on_box`) and lists of line segments
(`values_on_segments`) at once, not a point at a time; an empty box reads
as [].  Each also answers the queries of the decomposition theorems itself:
`convolve(terms)`, `annihilated_by(f, window) -> Verdict` and
`period_multiple(w, bound, window) -> (k, exact)`.  A window and a periodic
configuration share one period rule: the least k whose X^{kw} - 1
annihilates them.  The module functions
apply_poly, is_annihilated and detect_period_multiple check dimensions,
normalise their arguments and delegate.  Translation by t is the
convolution by the monomial X^t, and on a box it is a read: c on the box
shifted by -t.  Points are read with
`c.value_at(x)`.  Periodic configurations and fiber sums answer exactly; a
window answers with evidence from its own box; a lazy view answers with
evidence from the `window` its caller passes and raises PreconditionError
without one.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import combinations, product
from math import gcd, lcm
from operator import add, mul, sub

from .errors import (DimensionMismatch, EmptyRegionError, LatticeError,
                     OutOfDomainError, PreconditionError)
from .laurent import LaurentPoly, difference_poly
from .lattice import (as_int, hnf_diagonal, hnf_reduce, hnf_rows,
                      is_zero_vector, lattice_determinant,
                      lattice_intersection, primitive, vadd, vscale, vsub,
                      zero_vector)

# ---------------------------------------------------------------------------
# boxes

def box_points(lo, hi):
    """All integer points of the box [lo, hi], in lexicographic order."""
    return product(*(range(a, b + 1) for a, b in zip(lo, hi)))


def box_size(lo, hi):
    """Number of integer points of [lo, hi]; 0 for an empty box."""
    n = 1
    for a, b in zip(lo, hi):
        n *= max(b - a + 1, 0)
    return n


def box_strides(lo, hi):
    """Flat-layout strides of the box [lo, hi] in box_points order."""
    strides = []
    acc = 1
    for a, b in zip(reversed(lo), reversed(hi)):
        strides.append(acc)
        acc *= b - a + 1
    return tuple(reversed(strides))


def box_point(lo, hi, i):
    """The point at flat position i of the box [lo, hi]."""
    return tuple(a + i // s % (b - a + 1)
                 for a, b, s in zip(lo, hi, box_strides(lo, hi)))


def box_offset(lo, strides, x):
    """Flat position of the point x in a box with corner lo and strides."""
    return sum(s * (c - a) for s, c, a in zip(strides, x, lo))


def box_line_range(lo, hi, p, w):
    """(first, last) t with p + t*w inside [lo, hi], or None when none is."""
    first = last = None
    for a, b, c, s in zip(lo, hi, p, w):
        if s > 0:
            t0, t1 = -((c - a) // s), (b - c) // s
        elif s < 0:
            t0, t1 = -((b - c) // -s), (c - a) // -s
        elif a <= c <= b:
            continue
        else:
            return None
        first = t0 if first is None else max(first, t0)
        last = t1 if last is None else min(last, t1)
    if first > last:
        return None
    return first, last


def box_line_slabs(lo, hi, w):
    """Boxes holding the points x of [lo, hi] with x - w outside it, where
    lines along w enter.

    There is one slab per coordinate that w moves; each slab leaves out
    the earlier ones, so every start lies in exactly one.
    """
    cur_lo, cur_hi = list(lo), list(hi)
    for i, s in enumerate(w):
        if s > 0:
            slab, keep = (lo[i], min(hi[i], lo[i] + s - 1)), (lo[i] + s, hi[i])
        elif s < 0:
            slab, keep = (max(lo[i], hi[i] + s + 1), hi[i]), (lo[i], hi[i] + s)
        else:
            continue
        cur_lo[i], cur_hi[i] = slab
        yield tuple(cur_lo), tuple(cur_hi)
        cur_lo[i], cur_hi[i] = keep


def line_slice(start, step, n):
    """The n flat positions start, start + step, ... as a slice.

    Along a box line whose direction has a positive first nonzero entry,
    step > 0 whenever n > 1.
    """
    return slice(start, start + step * (n - 1) + 1, step if n > 1 else 1)


def line_values(vals, i, di, n):
    """The n entries vals[i], vals[i + di], ... for a step di of any sign."""
    if di < 0:
        return vals[line_slice(i + di * (n - 1), -di, n)][::-1]
    if di == 0:
        return [vals[i]] * n
    return vals[line_slice(i, di, n)]


def line_points(q, step, count):
    """The points q + k*step for k in range(count)."""
    return [tuple(a + k * s for a, s in zip(q, step)) for k in range(count)]


def _line_by_line(c, segments):
    """values_on_segments of a representation that reads each line alone."""
    return [c.values_on_line(q, step, count) for q, step, count in segments]


def _least_period(c, w, bound, window):
    """(least k <= bound with X^{kw} - 1 annihilating c, exact flag); a
    window's erosion by {0, kw}, its overlap with its translate, ends the
    search once it is empty."""
    for k in range(1, bound + 1):
        try:
            verdict = c.annihilated_by(difference_poly(vscale(k, w)), None)
        except EmptyRegionError:
            return None, False
        if verdict.holds:
            return k, verdict.exact
    return None, verdict.exact


def _cyclic(vals, start, n):
    """n entries of the cyclic table vals, read from position start on."""
    p = len(vals)
    start %= p
    if start + n <= p:
        return vals[start:start + n]
    rot = vals[start:] + vals[:start]
    return (rot * (n // p + 1))[:n]


def box_contains(lo, hi, x):
    return all(a <= c <= b for a, b, c in zip(lo, hi, x))


def box_intersect(b1, b2):
    lo = tuple(max(a, c) for a, c in zip(b1[0], b2[0]))
    hi = tuple(min(b, d) for b, d in zip(b1[1], b2[1]))
    if any(a > b for a, b in zip(lo, hi)):
        return None
    return lo, hi


def grow_box(lo, hi, exps):
    """The smallest box holding u - e for every u in [lo, hi] and e in
    `exps`: the box a convolution by that support reads."""
    glo = tuple(a - max(e[i] for e in exps) for i, a in enumerate(lo))
    ghi = tuple(b - min(e[i] for e in exps) for i, b in enumerate(hi))
    return glo, ghi


def sub_box(values, lo, strides, sub_lo, sub_hi):
    """A new list of the values over [sub_lo, sub_hi], one slice per row,
    from a flat table over a box with corner lo and strides holding it."""
    return _convolve_rows([(zero_vector(len(lo)), 1)], values, lo, strides,
                          sub_lo, sub_hi)


def erode_box(lo, hi, support):
    """Points u with u - s inside [lo, hi] for every s in `support`, the
    box a window convolution by that support fills; EmptyRegionError when
    there are none."""
    cmax = tuple(max(s[i] for s in support) for i in range(len(lo)))
    cmin = tuple(min(s[i] for s in support) for i in range(len(lo)))
    elo = vadd(lo, cmax)
    ehi = vadd(hi, cmin)
    if any(a > b for a, b in zip(elo, ehi)):
        raise EmptyRegionError(
            "window too small: erosion by the polynomial support is empty")
    return elo, ehi


def _int_table(values, lo, hi, kind):
    """An own copy of `values`, a flat table over the box [lo, hi], as ints.

    A list of exact ints is kept as it is; anything else is converted and
    must compare equal to its conversion, so a non-integral value raises
    PreconditionError naming its point instead of being truncated.
    """
    values = list(values)
    if len(values) != box_size(lo, hi):
        raise LatticeError(f"{kind} value array has the wrong length")
    if set(map(type, values)) <= {int}:
        return values
    ints = list(map(int, values))
    if ints != values:
        i, v = next((i, v) for i, (v, n) in enumerate(zip(values, ints))
                    if v != n)
        x = box_point(lo, hi, i)
        raise PreconditionError(
            f"non-integer value {v} at {x}: a {kind} holds integers")
    return ints


# ---------------------------------------------------------------------------
# verdicts

@dataclass(frozen=True)
class Verdict:
    """Outcome of a check that may be exact or window-evidence only."""
    holds: bool
    exact: bool
    region: tuple | None = None  # (lo, hi) the evidence covers

    @classmethod
    def exactly(cls, holds):
        return cls(holds=holds, exact=True)

    @classmethod
    def on_window(cls, holds, lo, hi):
        return cls(holds=holds, exact=False, region=(lo, hi))

    def __bool__(self):
        return self.holds


# ---------------------------------------------------------------------------
# window configuration

class WindowConfig:
    """Dense integer values over a box; undefined outside it.

    Values must be integral: integral Fractions are stored as ints, any
    other value raises PreconditionError rather than being truncated.
    """

    __slots__ = ("dim", "lo", "hi", "values", "strides")

    evidence_kind = "window evidence"  # names inexact verdicts in errors

    def __init__(self, lo, hi, values):
        self.lo = tuple(map(as_int, lo))
        self.hi = tuple(map(as_int, hi))
        self.dim = len(self.lo)
        if len(self.hi) != self.dim:
            raise DimensionMismatch("window corners of different dimension")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise EmptyRegionError(f"empty window {self.lo}..{self.hi}")
        self.values = _int_table(values, self.lo, self.hi, "window")
        self.strides = box_strides(self.lo, self.hi)

    @property
    def box(self):
        return self.lo, self.hi

    def contains(self, x):
        return box_contains(self.lo, self.hi, x)

    def _outside(self, x):
        return OutOfDomainError(
            f"{tuple(x)} outside window {self.lo}..{self.hi}")

    def value_at(self, x):
        if not self.contains(x):
            raise self._outside(x)
        return self.values[box_offset(self.lo, self.strides, x)]

    def values_on_box(self, lo, hi):
        """Values over [lo, hi], one slice of the value list per row."""
        if box_size(lo, hi) and not (self.contains(lo) and self.contains(hi)):
            raise self._outside(next(x for x in box_points(lo, hi)
                                     if not self.contains(x)))
        return sub_box(self.values, self.lo, self.strides, lo, hi)

    def values_on_line(self, q, step, count):
        """Values along q + k*step, one strided slice of the value list; a
        line that leaves the box is read point by point, so it raises at
        its first point outside."""
        if not (self.contains(q)
                and self.contains(vadd(q, vscale(count - 1, step)))):
            return [self.value_at(x) for x in line_points(q, step, count)]
        return line_values(self.values, box_offset(self.lo, self.strides, q),
                           sum(map(mul, self.strides, step)), count)

    values_on_segments = _line_by_line

    def convolve(self, terms):
        """f*c on the erosion of the box by supp(f): one flat index per
        term, each output row a sum of slices of the value list."""
        lo, hi = erode_box(self.lo, self.hi, [e for e, _ in terms])
        return WindowConfig(lo, hi, _convolve_rows(terms, self.values, self.lo,
                                                   self.strides, lo, hi))

    def annihilated_by(self, f, window):
        """Evidence on the eroded box; `window` is not used.  The zero
        polynomial annihilates exactly."""
        if f.is_zero():
            return Verdict.exactly(True)
        out = apply_poly(f, self)  # raises EmptyRegionError when eroded away
        return Verdict.on_window(not any(out.values), out.lo, out.hi)

    period_multiple = _least_period

    def __eq__(self, other):
        return (isinstance(other, WindowConfig) and self.lo == other.lo
                and self.hi == other.hi and self.values == other.values)

    def __repr__(self):
        return f"WindowConfig({self.lo}..{self.hi})"

    def grid_text(self):
        """Plain text dump; rows are the first coordinate (2-d only)."""
        if self.dim != 2:
            raise PreconditionError("grid dump is only defined for dim 2")
        n = self.strides[0]
        return "\n".join(" ".join(map(str, self.values[i:i + n]))
                         for i in range(0, len(self.values), n))


# ---------------------------------------------------------------------------
# strongly periodic configuration

class PeriodicConfig:
    """Values on Z^d invariant under a full-rank integer lattice.

    `basis` is the declared generator list (columns of the period matrix).
    The canonical HNF residues of that lattice form the residue box
    [0, diag - 1], diag the HNF pivots; `values` lists one value per
    residue in `box_points` order over that box, the layout of a window.
    Every whole-table operation is a read of the residue box.
    """

    __slots__ = ("dim", "basis", "values", "_hnf", "_diag", "_strides",
                 "_moves")

    def __init__(self, dim, basis, values):
        self._set(_declared_lattice(dim, basis), values)

    def _set(self, lattice, values):
        """Take the lattice (dim, basis, HNF rows, pivots, residue strides)
        as it is and the flat table `values`; only the table is checked."""
        self.dim, self.basis, self._hnf, self._diag, self._strides = lattice
        self.values = _int_table(values, *self.residue_box,
                                 "periodic configuration")
        self._moves = {}  # step -> row h -> (next row, shift, its start)

    @classmethod
    def _on(cls, lattice, values):
        """The configuration with the table `values` on a known lattice."""
        c = cls.__new__(cls)
        c._set(lattice, values)
        return c

    @property
    def _lattice(self):
        return self.dim, self.basis, self._hnf, self._diag, self._strides

    @classmethod
    def constant(cls, dim, value):
        ident = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
        return cls(dim, ident, [value])

    @property
    def determinant(self):
        return lattice_determinant(self._hnf, self.dim)

    @property
    def lattice_rows(self):
        return self._hnf

    @property
    def residue_box(self):
        """(lo, hi) of the canonical residues: ((0, ..., 0), diag - 1)."""
        return _residue_box(self._diag)

    def value_at(self, x):
        return self.values[sum(map(mul, self._strides,
                                   hnf_reduce(x, self._hnf)))]

    def values_on_box(self, lo, hi):
        """Values over [lo, hi], one HNF reduction per row.

        Reducing (y, s) gives (h, (s + r) mod d), d the last pivot, with h
        and r fixed by y, so every row of Z^d along the last axis is a
        rotation of the row h of the residue table.
        """
        if not box_size(lo, hi):
            return []
        vals, strides, d = self.values, self._strides, self._diag[-1]
        n = hi[-1] - lo[-1] + 1
        out = []
        for h in box_points(lo[:-1], hi[:-1]):
            src = hnf_reduce(h + (lo[-1],), self._hnf)
            i, t = sum(map(mul, strides, src)), src[-1]
            out += vals[i:i + n] if t + n <= d \
                else _cyclic(vals[i - t:i - t + d], t, n)
        return out

    def values_on_line(self, q, step, count):
        """Values along q + k*step: q is reduced once, then (h, t) + step
        reduces to (h', (t + s) mod d) with h' and s fixed by the row h (as
        in values_on_box); each row's move is reduced once per step, kept."""
        moves = self._moves.setdefault(step, {})
        vals, strides, d = self.values, self._strides, self._diag[-1]
        r = hnf_reduce(q, self._hnf)
        h, t = r[:-1], r[-1]
        i = sum(map(mul, strides, r)) - t  # flat start of the row h
        out = []
        for k in range(count):
            if k:
                move = moves.get(h)
                if move is None:
                    x = hnf_reduce(vadd(h + (0,), step), self._hnf)
                    move = moves[h] = (x[:-1], x[-1],
                                       sum(map(mul, strides, x)) - x[-1])
                h, s, i = move
                t = (t + s) % d
            out.append(vals[i + t])
        return out

    values_on_segments = _line_by_line

    def contains(self, x):
        return True

    def is_zero(self):
        return not any(self.values)

    def centered(self, e):
        """e moved by a lattice vector into the residue box shifted back by
        half its sides: c(x - e) is unchanged, and the residue box grown by
        centered shifts is under twice as wide."""
        half = tuple(p // 2 for p in self._diag)
        return vsub(hnf_reduce(vadd(e, half), self._hnf), half)

    def convolve(self, terms):
        """f*c on the same lattice, from one read of c on the residue box
        grown by the centered supp(f)."""
        return self._on(self._lattice, _Combination(
            self.dim, [(self, k, self.centered(e)) for e, k in terms]
        ).values_on_box(*self.residue_box))

    def annihilated_by(self, f, window):
        return Verdict.exactly(apply_poly(f, self).is_zero())

    period_multiple = _least_period

    def __eq__(self, other):
        return (isinstance(other, PeriodicConfig) and self.dim == other.dim
                and self._hnf == other._hnf and self.values == other.values)

    def __repr__(self):
        return f"PeriodicConfig(dim={self.dim}, det={self.determinant})"


def _declared_lattice(dim, basis):
    """(dim, basis, HNF rows, pivots, residue strides) of a period basis,
    the basis as int tuples; a singular basis raises LatticeError."""
    dim = int(dim)
    basis = tuple(tuple(map(as_int, g)) for g in basis)
    for g in basis:
        if len(g) != dim:
            raise DimensionMismatch("period generator of wrong dimension")
    rows = hnf_rows(basis, dim)
    if len(rows) != dim:
        raise LatticeError("period basis is singular")
    diag = hnf_diagonal(rows, dim)
    return dim, basis, rows, diag, box_strides(*_residue_box(diag))


def _residue_box(diag):
    """The canonical residues of a lattice with HNF pivots diag: a box."""
    return (0,) * len(diag), tuple(p - 1 for p in diag)


def period_lattice(c: PeriodicConfig):
    """HNF basis of the lattice of all period vectors of c.

    Every coset of the declared lattice is tested as a candidate period t,
    by reading the residue box shifted by t, so the result is the full
    superlattice, found by brute force over the |det| residues.
    """
    lo, hi = c.residue_box
    periods = list(c.lattice_rows)
    for t in box_points(lo, hi):
        if (not is_zero_vector(t)
                and c.values_on_box(vadd(lo, t), vadd(hi, t)) == c.values):
            periods.append(t)
    return hnf_rows(periods, c.dim)


# ---------------------------------------------------------------------------
# periodic fibers

class PeriodicFiber:
    """Periodic values on a single rational line, zero elsewhere.

    Invariants enforced here: the direction is primitive and sign
    normalized, the anchor is the canonical representative of the line
    modulo the direction, vals has minimal period and is not all zero.
    value(anchor + j*direction) = vals[j mod period].
    """

    __slots__ = ("dim", "anchor", "direction", "vals", "_pivot")

    def __init__(self, anchor, direction, vals):
        self.anchor = tuple(map(as_int, anchor))
        self.direction = tuple(map(as_int, direction))
        self.dim = len(self.anchor)
        if len(self.direction) != self.dim:
            raise DimensionMismatch("fiber anchor/direction dimension mismatch")
        if is_zero_vector(self.direction):
            raise LatticeError("fiber direction is zero")
        if self.direction != primitive(self.direction):
            raise LatticeError("fiber direction must be primitive and normalized")
        if hnf_reduce(self.anchor, (self.direction,)) != self.anchor:
            raise LatticeError("fiber anchor is not the canonical line point")
        self.vals = tuple(map(as_int, vals))
        if not any(self.vals):
            raise LatticeError("fiber values must not be all zero")
        if _minimal_period(self.vals) != len(self.vals):
            raise LatticeError("fiber values are not reduced to minimal period")
        self._pivot = next(i for i, a in enumerate(self.direction) if a)

    @property
    def period(self):
        return len(self.vals)

    def line_key(self):
        return (self.direction, self.anchor)

    def parameter_of(self, x):
        """Integer t with x = anchor + t*direction, or None off the line."""
        if hnf_reduce(x, (self.direction,)) != self.anchor:
            return None
        return self._parameter_on_line(x)

    def _parameter_on_line(self, x):
        return ((x[self._pivot] - self.anchor[self._pivot])
                // self.direction[self._pivot])

    def value_at(self, x):
        t = self.parameter_of(x)
        if t is None:
            return 0
        return self.vals[t % self.period]

    def __eq__(self, other):
        return (isinstance(other, PeriodicFiber) and self.anchor == other.anchor
                and self.direction == other.direction and self.vals == other.vals)

    def __repr__(self):
        return (f"PeriodicFiber(anchor={self.anchor}, "
                f"dir={self.direction}, vals={list(self.vals)})")


def _minimal_period(vals):
    # p divides n and the table equals itself shifted by p: period p
    n = len(vals)
    for p in range(1, n):
        if n % p == 0 and vals[p:] == vals[:n - p]:
            return p
    return n


def make_fiber(anchor, direction, vals):
    """Canonicalize raw fiber data; returns None when the values vanish.

    Accepts any nonzero integer direction: non-primitive or negated
    directions are rewritten onto the primitive line parameterization
    (skipped positions become zeros), the anchor is reduced to the line's
    canonical point with the value table rotated to match, and the table is
    cut to its minimal period.
    """
    anchor = tuple(map(as_int, anchor))
    direction = tuple(map(as_int, direction))
    vals = list(map(as_int, vals))
    if is_zero_vector(direction):
        raise LatticeError("fiber direction is zero")
    if not vals:
        raise LatticeError("fiber needs at least one value")
    w = primitive(direction)
    pivot = next(i for i, a in enumerate(w) if a)
    scale = direction[pivot] // w[pivot]  # signed step in primitive units
    if scale != 1:
        n = len(vals) * abs(scale)
        spread = [0] * n
        for j, v in enumerate(vals):
            spread[(j * scale) % n] = v
        vals = spread
    canon = hnf_reduce(anchor, (w,))
    q = (anchor[pivot] - canon[pivot]) // w[pivot]
    if q:
        n = len(vals)
        vals = [vals[(j - q) % n] for j in range(n)]
    return _line_fiber(w, canon, vals)


def _line_fiber(direction, anchor, vals):
    """The fiber of a canonical line's value table; None when it is zero."""
    if not any(vals):
        return None
    return PeriodicFiber(anchor, direction, vals[:_minimal_period(vals)])


def _fiber_pieces_sum(pieces):
    """Canonical fibers of the sum of k * f(x - e) over pieces (f, e, k).

    Every f is a canonical PeriodicFiber and e is a shift or None.  Shifting
    a canonical fiber keeps its direction: the anchor is reduced along the
    line once and the value table rotated by the line-parameter offset.
    Pieces on one line are summed on their lcm-period table; only those
    tables are tested for zero and cut to their minimal period.  A line
    holding one unshifted, unscaled piece keeps that fiber object.  The
    result is sorted by line.
    """
    tables, kept, merged = {}, {}, set()
    for f, e, k in pieces:
        if not k:
            continue
        w, anchor, vals = f.direction, f.anchor, f.vals
        if e is not None:
            # hnf_reduce(anchor + e, (w,)): one step of w at the pivot
            piv = f._pivot
            q = (anchor[piv] + e[piv]) // w[piv]
            anchor = tuple(a + b - q * c for a, b, c in zip(anchor, e, w))
            q %= len(vals)
            if q:
                vals = vals[-q:] + vals[:-q]
        if k != 1:
            vals = tuple(k * v for v in vals)
        key = (w, anchor)
        if key in tables:
            tables[key] = _merge_vals(tables[key], vals)
            merged.add(key)
            kept.pop(key, None)
        else:
            tables[key] = vals
            if e is None and k == 1:
                kept[key] = f
    out = []
    for key in sorted(tables):
        w, anchor = key
        if key in kept:
            out.append(kept[key])
        elif key not in merged:
            # a rotated, nonzero multiple of a canonical table is canonical
            out.append(PeriodicFiber(anchor, w, tables[key]))
        else:
            fib = _line_fiber(w, anchor, tables[key])
            if fib is not None:
                out.append(fib)
    return out


class FiberSum:
    """A finite sum of periodic fibers; the empty sum is the zero function.

    Fibers are merged on canonical line tables: fibers sharing a line
    (direction, canonical anchor) are summed on one lcm-period table, a
    table that sums to zero is dropped and a merged table is cut to its
    minimal period, so equality of canonical forms coincides with pointwise
    equality.  A fiber alone on its line is kept as it is.  Translates,
    multiples, convolutions and combinations of fiber sums shift, scale and
    merge the canonical fibers in one pass per line (`_fiber_pieces_sum`).
    """

    __slots__ = ("dim", "fibers", "_by_line", "_directions")

    def __init__(self, dim, fibers=()):
        self.dim = int(dim)
        pieces = []
        for f in fibers:
            if f is None:
                continue
            if f.dim != self.dim:
                raise DimensionMismatch("fiber of wrong dimension")
            pieces.append((f, None, 1))
        self.fibers = tuple(_fiber_pieces_sum(pieces))
        self._by_line = {f.line_key(): f for f in self.fibers}
        self._directions = tuple(sorted({f.direction for f in self.fibers}))

    @classmethod
    def zero(cls, dim):
        return cls(dim, ())

    def is_zero(self):
        return not self.fibers

    def contains(self, x):
        return True

    def value_at(self, x):
        # x lies on at most one line per direction: the one whose canonical
        # point is x reduced modulo that direction
        total = 0
        for d in self._directions:
            f = self._by_line.get((d, hnf_reduce(x, (d,))))
            if f is not None:
                total += f.vals[f._parameter_on_line(x) % f.period]
        return total

    def values_on_box(self, lo, hi):
        """Values over [lo, hi]; each fiber adds its table along the range
        of its line parameter that lies in the box."""
        strides = box_strides(lo, hi)
        out = [0] * box_size(lo, hi)
        for f in self.fibers:
            span = box_line_range(lo, hi, f.anchor, f.direction)
            if span is None:
                continue
            t0, t1 = span
            start = box_offset(lo, strides, vadd(f.anchor,
                                                 vscale(t0, f.direction)))
            sl = line_slice(start, sum(map(mul, strides, f.direction)),
                            t1 - t0 + 1)
            out[sl] = map(add, out[sl], _cyclic(f.vals, t0, t1 - t0 + 1))
        return out

    def values_on_line(self, q, step, count):
        """Values along q + k*step.  A fiber parallel to step holds the
        whole line or none of it and adds its table read with stride; any
        other fiber crosses the line at most once."""
        out = [0] * count
        for f in self.fibers:
            d, vals, p = f.direction, f.vals, f.period
            stride = step[f._pivot] // d[f._pivot]
            if vscale(stride, d) == tuple(step):
                t = f.parameter_of(q)
                if t is not None:
                    out = [v + vals[(t + k * stride) % p]
                           for k, v in enumerate(out)]
                continue
            # on two axes where step and d are independent, q + k*step - anchor
            # is parallel to d only for k = num / den
            u = vsub(q, f.anchor)
            num, den = next(
                (u[b] * d[a] - u[a] * d[b], step[a] * d[b] - step[b] * d[a])
                for a, b in combinations(range(self.dim), 2)
                if step[a] * d[b] != step[b] * d[a])
            k, r = divmod(num, den)
            if r == 0 and 0 <= k < count:
                t = f.parameter_of(vadd(q, vscale(k, step)))
                if t is not None:
                    out[k] += vals[t % p]
        return out

    values_on_segments = _line_by_line

    def parallel_part(self, direction):
        """The sub-sum of fibers parallel to `direction`."""
        w = primitive(direction)
        return FiberSum(self.dim, [f for f in self.fibers if f.direction == w])

    def convolve(self, terms):
        """f*c: the fibers translated, scaled and merged in one pass."""
        return FiberSum(self.dim, _fiber_pieces_sum(
            [(fib, e, k) for e, k in terms for fib in self.fibers]))

    def annihilated_by(self, f, window):
        return Verdict.exactly(apply_poly(f, self).is_zero())

    def period_multiple(self, w, bound, window):
        """Exact, in closed form: for w = s * primitive(w), k*w keeps a
        fiber of period p exactly when p divides k*s, and canonical fibers
        lie on distinct lines, so k is the lcm of p / gcd(p, |s|)."""
        if self.is_zero():
            return 1, True
        wp = primitive(w)
        if any(f.direction != wp for f in self.fibers):
            return None, True  # some line drifts under every multiple
        s = next(a // b for a, b in zip(w, wp) if b)
        k = lcm(*(f.period // gcd(f.period, s) for f in self.fibers))
        return (k if k <= bound else None), True

    def __eq__(self, other):
        return (isinstance(other, FiberSum) and self.dim == other.dim
                and self.fibers == other.fibers)

    def __repr__(self):
        return f"FiberSum(dim={self.dim}, fibers={len(self.fibers)})"


def _merge_vals(a, b):
    p = lcm(len(a), len(b))
    return tuple(a[j % len(a)] + b[j % len(b)] for j in range(p))


# ---------------------------------------------------------------------------
# lazy views

class LazyConfig:
    """A function on all of Z^d; values may be ints or Fractions.

    Used for decomposition components, whose values need not form a
    configuration (they can be unbounded); callers rasterize on demand.
    Values come back as exact arithmetic produces them: rasterize, through
    WindowConfig, is the one place that makes integral Fractions ints.

    The abstract base of the lazy views: a subclass sets `dim` and reads
    boxes and segments itself (`values_on_box`, `values_on_segments`); by
    default a point read is a one-point segment.  With no finite region of
    its own, a lazy view answers annihilation and period queries on the
    window its caller passes.
    """

    __slots__ = ("dim",)

    evidence_kind = "evaluator evidence"  # names inexact verdicts in errors

    def value_at(self, x):
        return self.values_on_segments([(x, zero_vector(self.dim), 1)])[0][0]

    def contains(self, x):
        return True

    def convolve(self, terms):
        """f*c as a combination, one shifted part per term."""
        return _Combination(self.dim, [(self, k, e) for e, k in terms])

    def annihilated_by(self, f, window):
        """Evidence on `window`, from one grid read around it.  The zero
        polynomial annihilates exactly, with or without a window."""
        if f.is_zero():
            return Verdict.exactly(True)
        if window is None:
            raise PreconditionError(
                "annihilation of an evaluator view is undecidable; "
                "rasterize first")
        lo, hi = window
        fc = self.convolve(f.terms()).values_on_box(lo, hi)
        return Verdict.on_window(not any(fc), lo, hi)

    def period_multiple(self, w, bound, window):
        """The answer of the rasterized `window`."""
        if window is None:
            raise PreconditionError(
                "period evidence for an evaluator needs an explicit window")
        return rasterize(self, *window).period_multiple(w, bound, None)

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


# ---------------------------------------------------------------------------
# generic operations

def rasterize(c, lo, hi):
    """Dense window of c over [lo, hi]; exact, errors outside c's domain."""
    lo = tuple(map(as_int, lo))
    hi = tuple(map(as_int, hi))
    if len(lo) != c.dim or len(hi) != c.dim:
        raise DimensionMismatch("box corners of wrong dimension")
    if not (c.contains(lo) and c.contains(hi)):
        raise OutOfDomainError(f"box {lo}..{hi} exceeds the domain of {c!r}")
    return WindowConfig(lo, hi, c.values_on_box(lo, hi))


def apply_poly(f: LaurentPoly, c):
    """The convolution action: (fc)(u) = sum_i f_i * c(u - u_i).

    Windows shrink to the erosion of their box by supp(f); periodic
    configurations keep their lattice; fiber sums map to merged translated
    scaled fibers; lazy views become combinations.  The zero polynomial
    yields the zero fiber sum.
    """
    if f.dim != c.dim:
        raise DimensionMismatch("polynomial/configuration dimension mismatch")
    if f.is_zero():
        return FiberSum.zero(c.dim)
    return c.convolve(f.terms())


def row_sources(terms, lo, strides, out_lo, out_hi):
    """Where the rows of sum_e k * c(u - e) over [out_lo, out_hi] lie in a
    flat table of c with corner lo and strides: (start, k) per term for the
    first row, the offset of every row past it, and the row length."""
    # an output row lies `off` past out_lo in the source layout; its source
    # for term e is the n values from the index of out_lo - e plus off on
    starts = [(box_offset(lo, strides, vsub(out_lo, e)), k) for e, k in terms]
    offsets = [0]
    for a, b, s in zip(out_lo[:-1], out_hi[:-1], strides[:-1]):
        offsets = [o + j * s for o in offsets for j in range(b - a + 1)]
    return starts, offsets, out_hi[-1] - out_lo[-1] + 1


def _convolve_rows(terms, values, lo, strides, out_lo, out_hi):
    """sum_e k * c(u - e) for u in [out_lo, out_hi], in flat layout.

    `values` holds c over a box with corner `lo` and flat `strides`, which
    must contain every u - e.  Values may be ints or Fractions.  A row
    starts as the first term's source row, so a translate only copies rows.
    A table of exact ints convolved with some |k| != 1 is summed packed
    instead when its slots fit (`_packed_rows`).
    """
    if len(terms) > 1024:  # reading a chain of maps nests a C call per link
        head, tail = (_convolve_rows(part, values, lo, strides, out_lo, out_hi)
                      for part in (terms[:1024], terms[1024:]))
        return list(map(add, head, tail))
    starts, offsets, n = row_sources(terms, lo, strides, out_lo, out_hi)
    if n > 0 and offsets and any(k not in (1, -1) for _, k in starts):
        slot = _slot_format(values, sum(abs(k) for _, k in starts))
        if slot:
            return _packed_rows(starts, offsets, n, values, *slot)
    (first, k0), rest = starts[0], starts[1:]
    out = []
    for off in offsets:
        row = values[first + off:first + off + n]
        if k0 != 1:
            row = [k0 * v for v in row]
        for start, k in rest:
            row = _add_scaled(row, k, values[start + off:start + off + n])
        out += row
    return out


def _slot_format(values, weight):
    """(bytes, struct code) of the narrowest signed slot of 2, 4 or 8 bytes
    that holds every sum of `values` weighted by at most `weight` in all,
    or None for a table that is not all exact ints or needs wider slots."""
    if not set(map(type, values)) <= {int}:
        return None
    bound = max(max(values), -min(values)) * weight
    for width, code in ((2, "h"), (4, "i"), (8, "q")):
        if bound < 1 << 8 * width - 1:
            return width, code
    return None


def _packed_rows(starts, offsets, n, values, width, code):
    """`_convolve_rows` with the whole table packed into one integer, a
    signed slot of `width` bytes per value (Kronecker substitution): each
    term is one shift of it and one small multiple, all summed in C.

    Slot i of x << width*8*(top - start) holds the value at i - top + start,
    so slot top + off + j of the sum is the output at row offset off and
    column j.  Slots hold two's complement through the sign-bit pattern:
    XOR then subtract it to read a signed table, add then XOR it to write
    one.  No slot carries, since |sum| < 2^(8*width - 1) (`_slot_format`).
    """
    bits = 8 * width
    top = max(s for s, _ in starts)
    size = len(values) + top - min(s for s, _ in starts)
    sign = int.from_bytes((bytes(width - 1) + b"\x80") * size, "little")
    x = int.from_bytes(struct.pack(f"<{len(values)}{code}", *values), "little")
    x = (x ^ sign) - sign
    total = 0
    for s, k in starts:
        total += k * (x << bits * (top - s))
    del x
    table = ((total + sign) ^ sign).to_bytes(size * width, "little")
    del total
    row = struct.Struct(f"<{n}{code}")
    out = []
    for off in offsets:
        out += row.unpack_from(table, (top + off) * width)
    return out


def _add_scaled(row, k, part):
    """row + k * part, elementwise; an iterator for k = 1 or -1, so that a
    chain of them builds its row as a list once."""
    if k == 1:
        return map(add, row, part)
    if k == -1:
        return map(sub, row, part)
    return [x + k * v for x, v in zip(row, part)]


def is_annihilated(f: LaurentPoly, c) -> Verdict:
    """Whether fc = 0: exact for periodic and fiber views, evidence on the
    eroded box for windows, and exact for every view when f is zero.

    Lazy views have no finite check region of their own and raise
    PreconditionError: rasterize first, or ask `c.annihilated_by(f, window)`
    for evidence on a window.
    """
    if f.dim != c.dim:
        raise DimensionMismatch("polynomial/configuration dimension mismatch")
    return c.annihilated_by(f, None)


def add_views(views, coeffs=None):
    """Pointwise integer combination k1*c1 + ... + kn*cn.

    The result is a FiberSum when all inputs are, a PeriodicConfig on the
    intersection lattice when all inputs are periodic, a window on the box
    intersection when any input is a window and none is lazy, and a lazy
    view, read only where it is asked for, for the remaining mixes.
    """
    views = list(views)
    if not views:
        raise PreconditionError("add_views needs at least one view")
    if coeffs is None:
        coeffs = [1] * len(views)
    coeffs = list(map(as_int, coeffs))
    if len(coeffs) != len(views):
        raise PreconditionError("one coefficient per view is required")
    dim = views[0].dim
    for v in views:
        if v.dim != dim:
            raise DimensionMismatch("views of different dimension")

    if all(isinstance(v, FiberSum) for v in views):
        return FiberSum(dim, _fiber_pieces_sum(
            [(fib, None, k) for k, v in zip(coeffs, views)
             for fib in v.fibers]))

    parts = [(v, k, None) for v, k in zip(views, coeffs)]
    if all(isinstance(v, PeriodicConfig) for v in views):
        rows = views[0].lattice_rows
        for v in views[1:]:
            rows = lattice_intersection(rows, v.lattice_rows, dim)
        if len(rows) != dim:
            raise LatticeError("intersection lattice lost rank (internal)")
        # rows is an HNF already: the basis and the HNF rows of the result
        diag = hnf_diagonal(rows, dim)
        box = _residue_box(diag)
        return PeriodicConfig._on((dim, rows, rows, diag, box_strides(*box)),
                                  _Combination(dim, parts).values_on_box(*box))

    windows = [v for v in views if isinstance(v, WindowConfig)]
    if windows and not any(isinstance(v, LazyConfig) for v in views):
        box = windows[0].box
        for w in windows[1:]:
            nxt = box_intersect(box, w.box)
            if nxt is None:
                raise EmptyRegionError("window domains do not intersect")
            box = nxt
        return WindowConfig(*box, _Combination(dim, parts).values_on_box(*box))

    return _Combination(dim, parts)


class _Combination(LazyConfig):
    """The lazy view of k1*c1(x - e1) + ... + kn*cn(x - en).

    Each part is (view, coefficient, shift), the shift None for an
    unshifted part.  A box read reads each view once (see the module
    docstring); segments are read from each part's own segment reads,
    shifted back by e.
    """

    __slots__ = ("parts",)

    def __init__(self, dim, parts):
        self.dim = dim
        self.parts = parts

    def values_on_box(self, lo, hi):
        if not box_size(lo, hi):
            return []
        by_view = {}  # id(view) -> (view, [(shift, coefficient)])
        for v, k, e in self.parts:
            by_view.setdefault(id(v), (v, []))[1].append((e, k))
        total = [0] * box_size(lo, hi)
        for v, terms in by_view.values():
            if len(terms) == 1 and terms[0][0] is None:
                k, part = terms[0][1], v.values_on_box(lo, hi)
            else:
                terms = [(zero_vector(self.dim) if e is None else e, k)
                         for e, k in terms]
                glo, ghi = grow_box(lo, hi, [e for e, _ in terms])
                k, part = 1, _convolve_rows(terms, v.values_on_box(glo, ghi),
                                            glo, box_strides(glo, ghi), lo, hi)
            total = list(_add_scaled(total, k, part))
        return total

    def values_on_segments(self, segments):
        totals = [[0] * count for _, _, count in segments]
        for v, k, e in self.parts:
            reads = segments if e is None else \
                [(vsub(q, e), step, count) for q, step, count in segments]
            totals = [list(_add_scaled(total, k, part)) for total, part
                      in zip(totals, v.values_on_segments(reads))]
        return totals


def detect_period_multiple(c, direction, bound, window=None):
    """Smallest k in [1, bound] with c invariant under k*direction.

    Exact for PeriodicConfig and, in closed form, FiberSum; evidence on a
    window's own box, and on the rasterized `window` for lazy views, which
    need one.  Returns (k, exact_flag) or (None, exact_flag) when no such
    multiple exists within the bound, which must be at least 1.
    """
    if bound < 1:
        raise PreconditionError(f"the period bound {bound} is below 1")
    w = tuple(map(as_int, direction))
    if len(w) != c.dim:
        raise DimensionMismatch("direction of wrong dimension")
    if is_zero_vector(w):
        raise PreconditionError("the zero vector is not a direction")
    return c.period_multiple(w, bound, window)

