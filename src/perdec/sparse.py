"""Sparse configurations and their decomposition into periodic fibers.

A function is sparse when its support meets every cube {-m..m}^d + t in at
most a*m points for one uniform constant a.  Finite sums of periodic fibers
are always sparse (a line meets such a cube in at most 2m+1 <= 3m points),
and that closed-form bound powers the exact certificates here.

Compactness arguments are replaced by computable surrogates: for fiber
sums, the limit of a translate sequence along a fiber-preserving step is
the parallel sub-sum (the canonical converging subsequence); for window
views, stabilization of rasterized translates is detected with explicit
patience and length bounds, and exhaustion is reported as inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import lcm
from operator import add, mul, sub

from .config import (FiberSum, PeriodicConfig, WindowConfig, add_views,
                     apply_poly, box_intersect, box_line_range,
                     box_line_slabs, box_points, box_strides, make_fiber,
                     rasterize, translate)
from .decompose import (Bounds, _require_annihilation,
                        search_difference_annihilator)
from .errors import (InconclusiveError, PreconditionError, VerificationError)
from .laurent import LaurentPoly, non_parallel_directions, poly_product
from .lattice import hnf_reduce, is_zero_vector, primitive, vscale


# ---------------------------------------------------------------------------
# sparseness certificates

@dataclass(frozen=True)
class SparsenessReport:
    """Result of a sparseness check.

    `ok` means no cube violated the a*m budget; `exact` marks a proven
    bound (fiber sums whose closed-form constant fits the requested a) as
    opposed to window evidence.  `checked` lists (m, max count found) for
    the probed sizes and `violation` carries the first offending (m, t).
    """
    constant: int
    ok: bool
    exact: bool
    checked: tuple
    violation: tuple | None = None


def fiber_closed_form_constant(c: FiberSum) -> int:
    """Proven sparseness constant: three per fiber line."""
    return 3 * len(c.fibers)


def check_sparseness(c, a: int, m_max: int) -> SparsenessReport:
    """Certify |supp(c) n (C_m + t)| <= a*m, or report a violating (m, t).

    Fiber sums get a proven certificate whenever a covers the closed-form
    per-line constant; other verdicts are evidence over the checked cube
    sizes.  Every kind scans a box of translates: a capped box around the
    origin for fiber sums, the canonical residues [0, diag - 1] for periodic
    inputs (complete per size), and for windows the translates whose cubes
    fit inside the box.  Failure is a result, not an error.  Counts are
    exact, read from a summed-area table of the support (`_cube_counter`)
    over a box that holds every cube the scan places, one row of translates
    along the last axis per read.
    """
    if a < 1 or m_max < 1:
        raise PreconditionError("sparseness check needs a >= 1 and m_max >= 1")
    d = c.dim

    if isinstance(c, FiberSum):
        # the proof is the closed-form per-line bound; the scan below only
        # records observed counts, so its translate box is capped
        reach = min(8, max((max(map(abs, f.anchor)) + f.period
                            for f in c.fibers), default=0))
        r = reach + 2 * m_max
        checked, violation = _cube_scan(
            a, m_max, _cube_counter(rasterize(c, (-r,) * d, (r,) * d)),
            lambda m: ((-reach - m,) * d, (reach + m,) * d), stop=False)
        ok = violation is None
        return SparsenessReport(
            constant=a, ok=ok, exact=ok and a >= fiber_closed_form_constant(c),
            checked=checked, violation=violation)

    if isinstance(c, PeriodicConfig):
        if c.is_zero():
            return SparsenessReport(constant=a, ok=True, exact=True,
                                    checked=((1, 0),))
        residues = c.residue_box
        built = {}

        def table(m):  # doubles, so an early violation skips m_max's box
            r = min(m_max, 1 << (m - 1).bit_length())
            if r not in built:
                built[r] = _cube_counter(rasterize(
                    c, (-r,) * d, tuple(b + r for b in residues[1])))
            return built[r](m)

        checked, violation = _cube_scan(a, m_max, table, lambda m: residues,
                                        stop=True)
        return SparsenessReport(constant=a, ok=violation is None,
                                exact=violation is not None, checked=checked,
                                violation=violation)

    if isinstance(c, WindowConfig):
        # only cubes that fit inside the window are placed
        fit = min(m_max, *((hi - lo) // 2 for lo, hi in zip(c.lo, c.hi)))
        checked, violation = _cube_scan(
            a, fit, _cube_counter(c),
            lambda m: (tuple(v + m for v in c.lo), tuple(v - m for v in c.hi)),
            stop=True)
        return SparsenessReport(constant=a, ok=violation is None, exact=False,
                                checked=checked, violation=violation)

    raise PreconditionError("sparseness of an evaluator view is undecidable")


def _cube_scan(a, m_max, table, translates, stop):
    """(checked, violation): per size m <= m_max, the largest count over the
    translate box `translates(m)` = (lo, hi), and the first (m, t) over a*m
    in box order; with `stop` the scan ends there and that count closes
    `checked`.  `table(m)` reads the counts one row along the last axis at
    a time.
    """
    checked, violation = [], None
    for m in range(1, m_max + 1):
        rows = table(m)
        lo, hi = translates(m)
        first, n = lo[-1], hi[-1] - lo[-1] + 1
        best = 0
        for head in box_points(lo[:-1], hi[:-1]):
            counts = rows(head + (first,), n)
            top = max(counts)
            if top > best:
                best = top
            if top > a * m and violation is None:
                i = next(i for i, k in enumerate(counts) if k > a * m)
                violation = (m, head + (first + i,))
                if stop:
                    return tuple(checked + [(m, counts[i])]), violation
        checked.append((m, best))
    return tuple(checked), violation


def _cube_counter(w: WindowConfig):
    """cubes(m) -> rows(t, n): support counts of w in the cubes C_m + t,
    C_m + t + e, ..., n translates along the last axis e; every cube must
    lie inside w's box.

    An inclusive prefix sum of the support indicator, padded with one
    leading zero layer per axis, answers each count from the cube's 2^d
    corners: one base index for t plus signed offsets fixed per size m.
    The last axis has stride 1, so a row of n counts is one slice of n
    table entries per corner, added or subtracted elementwise.
    """
    shape = [b - a + 2 for a, b in zip(w.lo, w.hi)]
    strides = box_strides([0] * w.dim, [n - 1 for n in shape])
    n = shape[-1] - 1
    table = []  # rows along the last axis, each led by its zero
    for i in range(0, len(w.values), n):
        table += accumulate(map(bool, w.values[i:i + n]), initial=0)
    for axis in reversed(range(w.dim - 1)):
        inner = strides[axis]
        block = (shape[axis] - 1) * inner
        summed = []
        for base in range(0, len(table), block):
            row = [0] * inner
            summed += row
            for j in range(base, base + block, inner):
                row = list(map(add, row, table[j:j + inner]))
                summed += row
        table = summed

    def cubes(m):
        # the upper corner t + m, then per axis optionally the lower t - m - 1
        plus = [sum((m + 1 - lo) * s for lo, s in zip(w.lo, strides))]
        minus = []
        for s in strides:
            step = (2 * m + 1) * s
            plus, minus = (plus + [o - step for o in minus],
                           minus + [o - step for o in plus])
        upper, plus = plus[0], plus[1:]

        def rows(t, n):
            b = sum(map(mul, t, strides))
            counts = table[b + upper:b + upper + n]
            for o in plus:
                counts = map(add, counts, table[b + o:b + o + n])
            for o in minus:
                counts = map(sub, counts, table[b + o:b + o + n])
            return list(counts)
        return rows

    return cubes


# ---------------------------------------------------------------------------
# fiber extraction

def fiber_extract(c, v, period_bound: int) -> FiberSum:
    """Regroup a direction-periodic sparse view as a sum of periodic fibers.

    Exact for fiber sums (which must already be parallel to v) and for the
    zero and one-dimensional periodic cases; window inputs yield the
    minimal in-window-consistent period per line, which is evidence only.
    """
    w = primitive(v)
    if isinstance(c, FiberSum):
        for f in c.fibers:
            if f.direction != w:
                raise PreconditionError(
                    f"fiber on line {f.anchor}+Z{f.direction} is not parallel "
                    f"to {w}: not periodic in that direction")
            if f.period > period_bound:
                raise InconclusiveError(
                    f"fiber period {f.period} exceeds bound {period_bound}",
                    period_bound)
        return c

    if isinstance(c, PeriodicConfig):
        if c.is_zero():
            return FiberSum.zero(c.dim)
        if c.dim == 1:
            p = c.determinant
            if p > period_bound:
                raise InconclusiveError(
                    f"period {p} exceeds bound {period_bound}", period_bound)
            return FiberSum(1, [make_fiber((0,), (1,), c.values)])
        raise PreconditionError(
            "a nonzero strongly periodic configuration in dimension >= 2 is "
            "not sparse, so it is not a finite fiber sum")

    if isinstance(c, WindowConfig):
        # each w-line meets the box in one run of values, read as one
        # strided slice from the point where it enters
        lines = []
        for slab in box_line_slabs(c.lo, c.hi, w):
            for q in box_points(*slab):
                _, last = box_line_range(c.lo, c.hi, q, w)
                lines.append((hnf_reduce(q, (w,)), q,
                              c.values_on_line(q, w, last + 1)))
        fibers = []
        for key, q, seq in sorted(lines):
            if not any(seq):
                continue
            # a run of length n always has period n, so no match means the
            # line's evidence needs a period > bound
            p = next((p for p in range(1, min(period_bound, len(seq)) + 1)
                      if seq[p:] == seq[:-p]), None)
            if p is None:
                raise InconclusiveError(
                    f"no period <= {period_bound} fits the in-window "
                    f"evidence of the line at {key}", period_bound)
            fibers.append(make_fiber(q, w, seq[:p]))
        return FiberSum(c.dim, fibers)

    raise PreconditionError("rasterize evaluator views before extraction")


# ---------------------------------------------------------------------------
# translate limits

def subsequence_limit(c: FiberSum, step) -> FiberSum:
    """Limit of a converging subsequence of translates of c by k*step.

    The subsequence multiplier is chosen canonically so that every fiber
    parallel to the step becomes invariant; fibers on other lines drift out
    of every finite window, so the limit is exactly the parallel sub-sum.
    """
    step = tuple(int(x) for x in step)
    if is_zero_vector(step):
        raise PreconditionError("the zero vector is no translation direction")
    return c.parallel_part(step)


def stabilized_translate_limit(c, step, window, k_max: int, patience: int
                               ) -> WindowConfig:
    """First window content repeated for `patience` consecutive translates.

    The finite surrogate for a translate-sequence limit, for every view
    alike; no stabilization within k_max translates is reported as
    inconclusive.  The exact limit of a fiber sum is `subsequence_limit`.
    """
    step = tuple(int(x) for x in step)
    if is_zero_vector(step):
        raise PreconditionError("the zero vector is no translation direction")
    lo, hi = window
    if k_max < 1 or patience < 1:
        raise PreconditionError("k_max and patience must be positive")
    run_len, prev = 0, None
    for k in range(k_max + 1):
        cur = rasterize(translate(c, vscale(k, step)), lo, hi)
        run_len = run_len + 1 if prev is not None and cur == prev else 1
        if run_len >= patience:
            return cur
        prev = cur
    raise InconclusiveError(
        f"no stabilization within {k_max} translates", k_max)


# ---------------------------------------------------------------------------
# two-factor split

def sparse_split2(c, phi: LaurentPoly, psi: LaurentPoly,
                  bounds: Bounds | None = None):
    """Split a sparse phi*psi-annihilated view into two fiber families.

    Returns (c1, c2) with phi*c1 = 0, psi*c2 = 0, c = c1 + c2, where c1 is
    a finite sum of fibers along phi's direction and c2 along psi's.  A
    fiber sum is grouped by direction (`sparse_decompose`).  A window is
    split by translate limits along the detected periods of psi*c and
    phi*c, and c = c1 + c2 is checked on the check window.
    """
    bounds = bounds or Bounds()
    if isinstance(c, FiberSum):
        return tuple(sparse_decompose(c, [phi, psi], bounds))
    v, u = non_parallel_directions([phi, psi])
    _require_annihilation(phi * psi, c, bounds,
                          "phi*psi does not annihilate the input")

    if isinstance(c, WindowConfig):
        # phi*(psi*c) = 0 is the check above: psi*c eroded by supp(phi) is c
        # eroded by supp(phi*psi) (a product's extreme exponents per axis
        # are the sums of its factors'), and the convolutions agree there
        ext1 = fiber_extract(apply_poly(psi, c), v, bounds.period)
        p = lcm(*(f.period for f in ext1.fibers))
        ext2 = fiber_extract(apply_poly(phi, c), u, bounds.period)
        q = lcm(*(f.period for f in ext2.fibers))
        lo, hi = bounds.check_window(c.dim)
        w1 = stabilized_translate_limit(c, vscale(p, v), (lo, hi),
                                        bounds.k_max, bounds.patience)
        w2 = stabilized_translate_limit(c, vscale(q, u), (lo, hi),
                                        bounds.k_max, bounds.patience)
        c1 = fiber_extract(w1, v, bounds.period)
        c2 = fiber_extract(w2, u, bounds.period)
        box = box_intersect((lo, hi), c.box)
        if box is not None and (add_views([c1, c2]).values_on_box(*box)
                                != c.values_on_box(*box)):
            raise VerificationError("split identity failed: c = c1 + c2")
        return c1, c2

    raise PreconditionError("split needs a fiber sum or a window view")


# ---------------------------------------------------------------------------
# full decomposition

def sparse_decompose(c, phis, bounds: Bounds | None = None):
    """Decompose a sparse annihilated view into per-direction fiber sums.

    Returns families indexed like `phis`: family i lies along phi_i's
    direction, phi_i annihilates it, and the families sum to c.

    On a fiber sum this decomposition is unique: family i is the sub-sum
    parallel to phi_i (`subsequence_limit`), and the checks are exact.
    prod phi_i annihilates c exactly when each phi_i annihilates family i
    and the families sum to c: the lemma of `_test_product`, which holds
    for every line polynomial.  A line polynomial transverse to w is
    injective on finite w-fiber sums: its farthest term along its own
    direction, applied to the sum's w-line farthest in that direction,
    reaches a line that no other term and line reach.

    Any other view is checked against the multiplied-out product; one
    factor then gives one family by extraction, and several need a fiber
    sum.
    """
    bounds = bounds or Bounds()
    phis = list(phis)
    if not phis:
        raise PreconditionError("need at least one line polynomial")
    dirs = non_parallel_directions(phis)

    if isinstance(c, FiberSum):
        families = [subsequence_limit(c, d) for d in dirs]
        if not (all(apply_poly(phi, fam).is_zero()
                    for phi, fam in zip(phis, families))
                and add_views([c] + families,
                              [1] + [-1] * len(families)).is_zero()):
            raise PreconditionError(
                "the product does not annihilate the input")
        return [fiber_extract(fam, d, bounds.period)
                for fam, d in zip(families, dirs)]

    _require_annihilation(poly_product(phis), c, bounds,
                          "the product does not annihilate the input")
    if len(phis) > 1:
        raise PreconditionError(
            "multi-factor sparse decomposition needs a fiber-sum view; "
            "extract fibers or rasterize first")
    return [fiber_extract(c, dirs[0], bounds.period)]


def sparse_full(c, f: LaurentPoly, bounds: Bounds | None = None):
    """Decompose a sparse view with an arbitrary annihilator into fibers.

    A difference-product certificate is searched from f's support geometry
    and the per-direction decomposition runs on its factors.  Returns the
    (possibly empty) list of fiber families.
    """
    bounds = bounds or Bounds()
    if isinstance(c, (FiberSum, PeriodicConfig)) and c.is_zero():
        return []
    dp = search_difference_annihilator(c, f, bounds.search)
    return sparse_decompose(c, dp.polys(), bounds)
