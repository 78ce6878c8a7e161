"""Periodic decomposition machinery.

The central construction solves the two-polynomial transfer problem: given
line polynomials phi, psi in non-parallel directions and a psi-annihilated,
V-periodic right-hand side c', it builds c with phi*c = c', psi*c = 0 and c
V-periodic.  The grid is partitioned into cosets modulo the integer span of
the two directions and an integer basis of V; inside each coset the product
equation becomes a one-dimensional linear recurrence along the phi
direction, seeded with a zero band, and is extended both ways.  The
solution is one object, its lazy view: the view carries phi, psi, c' and
the gauge that pins c down, and `verify_transfer` checks it from those.

On top of the transfer solver sit: the inductive product decomposition, the
annihilator rewriting rules, periodizer/annihilator conversions, the
bounded certificate search for difference-product annihilators, and the
level-by-level pipeline producing k-periodic components.

Decomposition components are exposed as lazy views (LazyConfig subclasses)
plus rasterization; in general their values need not form a configuration.
Components are evaluated a box at a time: a transfer component walks its
recurrence lines through the box and a residual sums the boxes of its parts;
a point read of a transfer component is a one-point segment.  Where psi
kills the source exactly (by an exact check, or in a decomposition whose
product check was exact), both are periodic along psi's line period u and
lines u apart are computed once.  A transfer component keeps its last box,
and verification reads every lazy component on one shared grid box, so each
is evaluated once per job.  All searches take caller-supplied bounds and
report exhaustion as inconclusive rather than fabricating verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, lcm
from operator import add, mul

from .config import (FiberSum, LazyConfig, PeriodicConfig, WindowConfig,
                     _convolve_rows, add_views, apply_poly, box_contains,
                     box_line_range, box_line_slabs, box_offset, box_points,
                     box_size, box_strides,
                     detect_period_multiple, grow_box, is_annihilated,
                     line_slice, line_values, period_lattice, sub_box)
from .errors import (EmptyRegionError, InconclusiveError, PerdecError,
                     PreconditionError, VerificationError)
from .laurent import (LaurentPoly, difference_poly, line_degree,
                      line_direction, non_parallel_directions, poly_product,
                      support_in_subspace)
from .lattice import (CosetSystem, SubspaceBasis, as_int,
                      hnf_with_coordinates, is_zero_vector, parallel,
                      primitive, rank_rational, span_meets_trivially, vadd,
                      vneg, vscale, vsub, zero_vector)


@dataclass(frozen=True)
class Bounds:
    """Search limits; every potentially unbounded loop honors one of these."""
    search: int = 32        # multiplier/subset budget for certificate search
    period: int = 64        # largest period multiple probed
    k_max: int = 256        # translate-sequence length for stabilization
    patience: int = 8       # consecutive identical windows declaring a limit
    check_radius: int = 8   # half-width of evidence windows for evaluators

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 1:
                raise PreconditionError(
                    f"bound {name} must be at least 1, got {value}")

    def check_window(self, dim):
        r = self.check_radius
        return (-r,) * dim, (r,) * dim


def _require_annihilation(f, c, bounds, message, error=PreconditionError):
    """Check fc = 0: exactly where c holds all of fc, else on evidence (for
    evaluator views, the check window); returns the verdict.  A window
    that f erodes away holds no evidence: inconclusive with bound 0."""
    try:
        verdict = c.annihilated_by(f, bounds.check_window(c.dim))
    except EmptyRegionError as exc:
        raise InconclusiveError(f"no window evidence: {exc}", 0) from exc
    if not verdict.holds:
        raise error(message if verdict.exact
                    else f"{message} ({c.evidence_kind})")
    return verdict


def _require_v_periodic(c, V, bounds, what):
    """Check that c is V-periodic where that is exact and not automatic: for
    a fiber sum.  A basis of V suffices, since integer combinations of
    periods are periods."""
    if V.rank and isinstance(c, FiberSum) and any(
            detect_period_multiple(c, b, bounds.period)[0] is None
            for b in V.integer_rows()):
        raise PreconditionError(f"{what} is not V-periodic")


def _exact_div(s, a):
    """s / a exactly; int when it divides, Fraction otherwise."""
    if isinstance(s, int):
        q, r = divmod(s, a)
        if r == 0:
            return q
        return Fraction(s, a)
    return s / a


# ---------------------------------------------------------------------------
# transfer solver

def _line_period(psi, bound):
    """A period of all that psi kills, or None: N*s*w for the least N <= bound
    with q | t^N - 1, psi = k X^a q(X^{s w}), s the gcd of the offsets and k
    the content.  By Gauss such a q has lead +-1, so t^N mod q is integral."""
    desc, offsets = line_degree(psi)
    w, s = desc.direction, gcd(*offsets)
    q = [psi.coefficient(vadd(desc.anchor, vscale(t * s, w)))
         for t in range(offsets[-1] // s + 1)]
    if abs(q[-1]) != gcd(*q):
        return None
    q = [a // q[-1] for a in q]
    r = one = [1] + [0] * (len(q) - 2)
    for n in range(1, bound + 1):
        r = [a - r[-1] * b for a, b in zip([0] + r[:-1], q)]
        if r == one:
            return vscale(n * s, w)
    return None


class _TransferEvaluator(LazyConfig):
    """A transfer summand: the solution c of phi*c = source, psi*c = 0 as
    a lazy view, per-line memoized evaluation of the coset recurrence.

    The view is the whole record of the summand: `phi`, `psi` and `source`
    state its equation, and `gauge` how it was pinned down, built once: the
    coset generators, the recurrence step w, the width n of the zero band
    and the monomial shift that starts supp(phi) at the origin.

    Every value is computed once.  A line is keyed by its base, its point at
    recurrence coordinate 0, and the sweep direction; its list holds the n
    band zeros and then the swept values, nearest the band first.  When psi
    kills the source exactly, both are periodic along psi's line period u,
    `period` (`_line_period`); u keeps the recurrence coordinate, so lines
    u apart share source and band and `_key` reduces bases modulo u, near
    the origin.  Windows and evidence-only sources keep one key per line.

    `values_on_box` walks the lines of direction w through the box, finds
    the recurrence coordinate of every line start, extends every line key
    to the farthest position any of its lines needs and copies the values
    into the box.  `values_on_segments` does the same for the points of
    other lines; a point is a one-point segment.  Both extend lines through
    `_source_values`: any source is read once on the bounding box of the
    new source points when that box lies in its domain and holds at most 4
    times as many points, else segment by segment.  The recurrence
    coordinate is walked along lines (`a1_line`), so a line pays one coset
    reduction per coset period rather than one per point.

    The view keeps the last box it computed, `box` = (lo, hi, values): a
    read of a box inside it is a sub-box read of those values, any other
    box is computed and replaces it, and no read hands out the kept list.
    Once a decomposition is verified on its grid box, the residual's read
    of this view and the rasterized component file are sub-box reads, so
    each lazy component is evaluated once per job.
    """

    __slots__ = ("phi", "psi", "source", "gauge", "w", "n", "cosets",
                 "lines", "sweeps", "box", "period", "pivot")

    def __init__(self, phi, psi, source, V, period):
        (desc, offsets), dim = line_degree(phi), phi.dim
        w, shift, n = desc.direction, desc.anchor, offsets[-1]
        self.dim, self.phi, self.psi, self.source = dim, phi, psi, source
        self.w, self.n, self.period = w, n, period
        w2 = line_direction(psi).direction
        self.cosets = CosetSystem(dim, (w, w2) + V.integer_rows())
        self.pivot = next(i for i, a in enumerate(w2) if a)
        self.gauge = {"generators": [list(g) for g in self.cosets.generators],
                      "step": list(w), "band_width": n,
                      "anchor_shift": list(shift)}
        self.lines = {}  # (line base, upward?) -> values from the band out
        self.box = None  # (lo, hi, values) of the last box computed
        alphas = [(t, phi.coefficient(vadd(shift, vscale(t, w))))
                  for t in offsets]  # offsets ascend from 0 to n
        # upward, c(t) = (c'(p + shift) - sum a_off c(t - off)) / a_0;
        # downward, the equation at t + n gives c(t) through a_n.  Both are
        # (list positions back, coefficient) terms over the line's list.
        self.sweeps = {
            True: (w, shift, alphas[0][1],
                   [(off, coef) for off, coef in alphas[1:]]),
            False: (vscale(-1, w), vadd(shift, vscale(n, w)), alphas[-1][1],
                    [(n - off, coef) for off, coef in alphas[:-1]]),
        }

    def a1_line(self, q, step, count):
        """The recurrence coordinate a1 at q + k*step for k in range(count):
        the first coset coordinate of the point, the weight of w1.

        The coset representative first comes back to that of q after m
        steps, m the order of step modulo the coset lattice (never when
        step leaves its span); m*step is then a lattice vector, so from
        there on a1 rises every m steps by the difference of the two
        coordinates, and only the first m points are reduced.
        """
        reduce = self.cosets.reduce
        x, out = q, []
        for k in range(count):
            z, coords = reduce(x)
            if not k:
                z0 = z
            elif z == z0:
                rise = coords[0] - out[0]
                return [out[j % k] + j // k * rise for j in range(count)]
            out.append(coords[0])
            x = vadd(x, step)
        return out

    def a1_on_box(self, lo, hi):
        """a1 over [lo, hi] in box_points order, walked along the longest
        axis of the box."""
        i = max(range(len(lo)), key=lambda j: hi[j] - lo[j])
        e = tuple(int(j == i) for j in range(len(lo)))
        n = hi[i] - lo[i] + 1
        strides = box_strides(lo, hi)
        out = [0] * box_size(lo, hi)
        for x in box_points(lo, hi[:i] + (lo[i],) + hi[i + 1:]):
            out[line_slice(box_offset(lo, strides, x), strides[i], n)] = \
                self.a1_line(x, e, n)
        return out

    def _key(self, base):
        """The key of the line at `base`: with a period u, base moved by a
        multiple of u to base_i in [0, u_i), i = `pivot`, w2's first axis."""
        u, i = self.period, self.pivot
        k = base[i] // u[i] if u else 0
        return tuple([b - k * a for b, a in zip(base, u)]) if k else base

    def _segment(self, base, up, last):
        """What line (base, up) lacks through list position `last`.

        Returns (list, up, first source point, source step, count); count
        is not positive when nothing is missing.
        """
        n = self.n
        vals = self.lines.get((base, up))
        if vals is None:
            vals = self.lines[base, up] = [0] * n
        i = len(vals)
        step, shift = self.sweeps[up][:2]
        # list position i holds t = i upward and t = n - 1 - i downward
        p = vadd(base, vscale(i if up else n - 1 - i, self.w))
        return vals, up, vadd(p, shift), step, last + 1 - i

    def _extend(self, segment, sources):
        """Run the recurrence over a segment, one source value per step; a
        unit extreme coefficient divides by a sign flip."""
        vals, up = segment[:2]
        div, back = self.sweeps[up][2:]
        for s in sources:
            for j, coef in back:
                s -= coef * vals[-j]
            vals.append(s if div == 1 else -s if div == -1
                        else _exact_div(s, div))

    def _extend_lines(self, need):
        """Extend each line (base, up) through its list position need[...]."""
        lines = self.lines
        segments = [self._segment(base, up, last)
                    for (base, up), last in need.items()
                    if len(lines.get((base, up), ())) <= last]
        for seg, sources in zip(segments, self._source_values(segments)):
            self._extend(seg, sources)

    def _source_values(self, segments):
        """The source values of each segment, in sweep order."""
        source = self.source
        reads = [seg[2:] for seg in segments]
        if reads:
            corners = [q for q, _, _ in reads] + [
                vadd(q, vscale(count - 1, step)) for q, step, count in reads]
            lo = tuple(map(min, zip(*corners)))
            hi = tuple(map(max, zip(*corners)))
            if box_size(lo, hi) <= 4 * sum(count for _, _, count in reads) \
                    and source.contains(lo) and source.contains(hi):
                grid = source.values_on_box(lo, hi)
                strides = box_strides(lo, hi)
                return [line_values(grid, box_offset(lo, strides, q),
                                    sum(map(mul, strides, step)), count)
                        for q, step, count in reads]
        return source.values_on_segments(reads)

    def values_on_segments(self, segments):
        """The values along each segment (q, step, count)."""
        w, n, lines = self.w, self.n, self.lines
        reads = []  # per segment: (line key, list position) or None per point
        need = {}  # (line base, upward?) -> last list position needed
        for q, step, count in segments:
            read = []
            for k, a in enumerate(self.a1_line(q, step, count)):
                if 0 <= a < n:
                    read.append(None)  # the band: zero
                    continue
                # the line base q + k*step - a*w, sweeping up or down
                up = a >= n
                key = self._key(tuple([c + k * s - a * v
                                       for c, s, v in zip(q, step, w)])), up
                pos = a if up else n - 1 - a
                need[key] = max(pos, need.get(key, pos))
                read.append((key, pos))
            reads.append(read)
        self._extend_lines(need)
        return [[0 if at is None else lines[at[0]][at[1]] for at in read]
                for read in reads]

    def values_on_box(self, lo, hi):
        """The values over [lo, hi]: a sub-box of the kept box when that
        holds [lo, hi], else computed and kept in its place."""
        if not box_size(lo, hi):
            return []
        if self.box is not None:
            blo, bhi, vals = self.box
            if box_contains(blo, bhi, lo) and box_contains(blo, bhi, hi):
                return sub_box(vals, blo, box_strides(blo, bhi), lo, hi)
        vals = self._compute_box(lo, hi)
        self.box = lo, hi, vals
        return vals[:]

    def _compute_box(self, lo, hi):
        """The values over [lo, hi], a line of direction w at a time."""
        w, n, lines = self.w, self.n, self.lines
        strides = box_strides(lo, hi)
        di = sum(map(mul, strides, w))
        runs = []  # (flat start, line base, first and last coordinate)
        need = {}  # (line base, upward?) -> last list position needed
        for slo, shi in box_line_slabs(lo, hi, w):
            for x, a in zip(box_points(slo, shi), self.a1_on_box(slo, shi)):
                e = a + box_line_range(lo, hi, x, w)[1]
                base = self._key(vsub(x, vscale(a, w)))
                runs.append((box_offset(lo, strides, x), base, a, e))
                for key, pos in ((base, True), e), ((base, False), n - 1 - a):
                    if pos >= n:
                        need[key] = max(pos, need.get(key, pos))
        self._extend_lines(need)
        out = [0] * box_size(lo, hi)
        for start, base, a, e in runs:
            if a >= 0 and e < n:
                continue  # the band: zeros
            part = lines[base, False][n - 1 - min(e, -1):n - a][::-1] \
                if a < 0 else []
            if e >= n:
                part += lines[base, True][max(a, 0):e + 1]
            elif e >= 0:
                part += [0] * (e + 1)
            out[line_slice(start, di, e - a + 1)] = part
        return out


def solve_transfer(phi: LaurentPoly, psi: LaurentPoly, cprime,
                   V: SubspaceBasis, bounds: Bounds | None = None
                   ) -> _TransferEvaluator:
    """Solve phi*c = cprime with psi*c = 0 and c V-periodic; returns the
    view of c, which carries phi, psi, cprime as `source` and its gauge.

    phi and psi must be line polynomials in non-parallel directions whose
    span meets V trivially, and psi must annihilate cprime.  phi is first
    normalized by a monomial shift so its support starts at the origin;
    the constructed c is zero on the initialization band and extends by the
    coset recurrence, dividing by the extreme coefficients (exact integer
    arithmetic when those are +-1, rationals otherwise).  Its values are
    integers whenever phi is a difference polynomial and the source is
    integer-valued.
    """
    bounds = bounds or Bounds()
    line = line_degree(phi)
    dpsi = line_direction(psi)
    if line is None:
        raise PreconditionError(f"phi is not a line polynomial: {phi!r}")
    if dpsi is None:
        raise PreconditionError(f"psi is not a line polynomial: {psi!r}")
    w1, w2 = line[0].direction, dpsi.direction
    if parallel(w1, w2):
        raise PreconditionError(f"parallel directions {w1} and {w2}")
    if not span_meets_trivially(w1, w2, V):
        raise PreconditionError(
            "the span of the two directions meets the subspace nontrivially")
    if cprime.dim != phi.dim:
        raise PreconditionError("source of wrong dimension")
    check = _require_annihilation(psi, cprime, bounds,
                                  "psi does not annihilate the source")
    _require_v_periodic(cprime, V, bounds, "source")
    return _TransferEvaluator(
        phi, psi, cprime, V,
        _line_period(psi, bounds.period) if check.exact else None)


def verify_transfer(view: _TransferEvaluator, lo, hi):
    """Residuals of the defining identities of a transfer view over a box:
    phi*c = source, psi*c = 0 and c = 0 on the band, from one read of the
    view grown by supp(phi), supp(psi) and 0."""
    glo, ghi = grow_box(lo, hi, [zero_vector(len(lo)), *view.phi.support(),
                                 *view.psi.support()])
    grid = view.values_on_box(glo, ghi)
    strides = box_strides(glo, ghi)
    phic, psic = (_convolve_rows(f.terms(), grid, glo, strides, lo, hi)
                  for f in (view.phi, view.psi))
    own = sub_box(grid, glo, strides, lo, hi)
    product_ok = phic == view.source.values_on_box(lo, hi)
    annihilation_ok = not any(psic)
    band = max(view.n, 1)
    band_ok = not any(v for v, a in zip(own, view.a1_on_box(lo, hi))
                      if 0 <= a < band)
    return {"product": product_ok, "annihilation": annihilation_ok,
            "band": band_ok,
            "ok": product_ok and annihilation_ok and band_ok}


# ---------------------------------------------------------------------------
# product decomposition

@dataclass
class Component:
    """One summand of a decomposition with its annihilation witness.

    `gauge` describes how the summand was pinned down when it came out of
    a transfer construction: it is the transfer view's own `gauge`.
    Residual and base-case components carry no gauge (they are determined
    by the others).
    """
    view: object
    line_poly: LaurentPoly
    subspace: SubspaceBasis
    periods: tuple = ()
    exact_periods: bool = True
    gauge: dict | None = None


@dataclass
class Decomposition:
    source: object
    components: list

    def verify_on_window(self, lo, hi):
        """Check sum = source and per-component annihilation over a box.

        Windows are checked on their own eroded box.  Every other component
        is read once, on one grid box shared by all of them: [lo, hi] grown
        by the union of their line-polynomial supports and the origin.  Its
        annihilation row is convolved from that grid and its own values are
        the [lo, hi] sub-box.  A residual reads each transfer view on the
        same grid box, which the view has just computed and kept, so every
        lazy component is evaluated once per job; a later `rasterize` on
        [lo, hi] is served from the kept box too.
        """
        windows = [isinstance(comp.view, WindowConfig)
                   for comp in self.components]
        glo, ghi = grow_box(lo, hi, [zero_vector(len(lo))] + [
            e for comp, window in zip(self.components, windows) if not window
            for e in comp.line_poly.support()])
        strides = box_strides(glo, ghi)
        total = [0] * box_size(lo, hi)
        per_comp = []
        for comp, window in zip(self.components, windows):
            if window:
                fc = apply_poly(comp.line_poly, comp.view).values
                own = comp.view.values_on_box(lo, hi)
            else:
                grid = comp.view.values_on_box(glo, ghi)
                fc = _convolve_rows(comp.line_poly.terms(), grid, glo, strides,
                                    lo, hi)
                own = sub_box(grid, glo, strides, lo, hi)
            per_comp.append(not any(fc))
            total = list(map(add, total, own))
        sum_ok = total == self.source.values_on_box(lo, hi)
        return {"box": (lo, hi), "sum": sum_ok, "annihilation": per_comp,
                "ok": sum_ok and all(per_comp)}


def _validate_line_family(phis, V):
    for u, v in combinations(non_parallel_directions(phis), 2):
        if not span_meets_trivially(u, v, V):
            raise PreconditionError(
                f"directions {u}, {v} collide with the subspace")


def decompose_product(phis, c, V: SubspaceBasis, bounds: Bounds | None = None
                      ) -> Decomposition:
    """Split c into summands, one annihilated by each line polynomial.

    Requires pairwise non-parallel directions whose pairwise spans meet V
    trivially, the product of the phis annihilating c, and c V-periodic.
    The last component is the residual c minus the lifted ones, so the sum
    telescopes exactly; components are evaluators that callers rasterize.
    """
    bounds = bounds or Bounds()
    phis = list(phis)
    if not phis:
        raise PreconditionError("need at least one line polynomial")
    _validate_line_family(phis, V)
    check = _require_annihilation(poly_product(phis), c, bounds,
                                  "the product does not annihilate the input")
    _require_v_periodic(c, V, bounds, "input")
    return Decomposition(
        source=c, components=_decompose_rec(phis, c, V, bounds, check.exact))


def _decompose_rec(phis, c, V, bounds, exact):
    """The components of c, which the product of phis kills, exactly when
    `exact`.  Then psi kills each transfer source exactly, as computed, so
    its view is built directly, without `solve_transfer`'s checks, and keys
    lines modulo psi's line period: the base component by the product
    check; a lifted T as phi*T = source everywhere and psi*T, killed by phi
    and 0 on the band shifted by psi's anchor, is 0 by uniqueness of the
    zero-band solution; a residual r as last*r telescopes to 0.  The
    directions and c's V-periodicity were checked by `decompose_product`."""
    if len(phis) == 1:
        return [Component(view=c, line_poly=phis[0], subspace=V)]
    last = phis[-1]
    rest = apply_poly(last, c)
    lifted = []
    for comp in _decompose_rec(phis[:-1], rest, V, bounds, exact):
        psi = comp.line_poly
        if exact:  # solve_transfer's checks hold by construction
            view = _TransferEvaluator(last, psi, comp.view, V,
                                      _line_period(psi, bounds.period))
        else:
            view = solve_transfer(last, psi, comp.view, V, bounds)
        lifted.append(Component(view=view, line_poly=psi,
                                subspace=V, gauge=view.gauge))
    residual = add_views([c] + [l.view for l in lifted],
                         [1] + [-1] * len(lifted))
    lifted.append(Component(view=residual, line_poly=last, subspace=V))
    return lifted


# ---------------------------------------------------------------------------
# difference products and the rewriting rules

@dataclass(frozen=True)
class DifferenceProduct:
    """A product of difference polynomials, kept as its vector list."""
    vectors: tuple

    def __post_init__(self):
        vecs = tuple(tuple(map(as_int, v)) for v in self.vectors)
        for v in vecs:
            if is_zero_vector(v):
                raise PreconditionError("zero vector in a difference product")
        object.__setattr__(self, "vectors", tuple(sorted(vecs)))

    def polys(self):
        return [difference_poly(v) for v in self.vectors]

    def __len__(self):
        return len(self.vectors)


def _period_multiple(view, w, bounds, context):
    """(k, exact): minimal k <= bounds.period with X^{k w} - 1 killing view.

    Evaluator views are checked on the evidence window; exhausting the
    bound is inconclusive.
    """
    k, exact = detect_period_multiple(view, w, bounds.period,
                                      window=bounds.check_window(view.dim))
    if k is None:
        raise InconclusiveError(
            f"no period multiple <= {bounds.period} along {w} ({context})",
            bounds.period)
    return k, exact


def reduce_annihilator(dp: DifferenceProduct, e, V: SubspaceBasis,
                       bounds: Bounds | None = None) -> DifferenceProduct:
    """Rewrite a difference product into non-parallel, V-transversal form.

    Two rules shrink the factor list, each validated by an annihilation
    check before being committed:

    * parallel pair: the product of the remaining factors applied to e is
      periodic along the shared direction; both factors merge into a single
      X^{p w} - 1 with p detected within bounds.period.
    * span collision: when span{v_j, v_j'} meets V, the integer relation
      among v_j, v_j' and V's basis gives p'*v_j' = p*v_j + v0 with v0 in
      V; scaling by e's detected period multiple along v0 replaces v_j' by
      a multiple of v_j, and the now-parallel pair merges by the first rule.
    """
    bounds = bounds or Bounds()
    vecs = list(dp.vectors)
    for v in vecs:
        if V.contains(v):
            raise PreconditionError(f"factor direction {v} lies in the subspace")
    _validate_product(vecs, e, bounds, PreconditionError)
    while True:
        pair = next(((j, jp) for j, jp in permutations(range(len(vecs)), 2)
                     if parallel(vecs[j], vecs[jp])
                     or not span_meets_trivially(vecs[j], vecs[jp], V)), None)
        if pair is None:
            return DifferenceProduct(tuple(vecs))
        j, jp = pair
        if parallel(vecs[j], vecs[jp]):
            vecs = _merge_parallel(vecs, j, jp, e, bounds)
        else:
            vecs = _rewrite_span_collision(vecs, j, jp, e, V, bounds)


def _merge_parallel(vecs, j, jp, e, bounds):
    others = [v for i, v in enumerate(vecs) if i not in (j, jp)]
    w = primitive(vecs[j])
    partial = e
    for v in others:
        partial = apply_poly(difference_poly(v), partial)
    p, _ = _period_multiple(partial, w, bounds, "parallel merge")
    new = others + [vscale(p, w)]
    _validate_product(new, e, bounds, VerificationError)
    return new


def _span_relation(vj, vjp, V):
    """The integer relation a*vj + b*vjp + (a vector of V) = 0 as weights of
    (vj, vjp, *V.integer_rows()): the HNF row of [vj; vjp; V | I] with a
    zero left part, primitive, signed so its last nonzero weight is
    positive."""
    dim = len(vj)
    for row in hnf_with_coordinates([vj, vjp, *V.integer_rows()], dim):
        if is_zero_vector(row[:dim]):
            rel = row[dim:]
            return rel if [a for a in rel if a][-1] > 0 else vneg(rel)
    raise PerdecError("span collision without a dependency (internal)")


def _rewrite_span_collision(vecs, j, jp, e, V, bounds):
    vj, vjp = vecs[j], vecs[jp]
    a, b = _span_relation(vj, vjp, V)[:2]
    if a == 0 or b == 0:
        # a zero weight would put one of the factors inside V
        raise PerdecError("degenerate span dependency (internal)")
    p, pprime = -a, b
    v0 = vsub(vscale(pprime, vjp), vscale(p, vj))
    if is_zero_vector(v0) or not V.contains(v0):
        raise PerdecError("span dependency left the subspace (internal)")
    k, _ = _period_multiple(e, v0, bounds, "span collision")
    replacement = vscale(k * p, vj)
    new = [v for i, v in enumerate(vecs) if i != jp]
    new.append(replacement)
    _validate_product(new, e, bounds, VerificationError)
    return new


def _validate_product(vectors, e, bounds, error):
    product = poly_product([difference_poly(v) for v in vectors])
    _require_annihilation(product, e, bounds,
                          "difference product does not annihilate", error)


# ---------------------------------------------------------------------------
# periodizer <-> annihilator conversions

def annihilator_from_periodizer(g: LaurentPoly, c, V: SubspaceBasis,
                                bounds: Bounds | None = None) -> LaurentPoly:
    """Upgrade a periodizer to an annihilator with the same V-transversality.

    g*c must be strongly periodic and representable; a period w of g*c
    outside V is read off its full period lattice, and n <= bounds.search
    is chosen so that supp((X^{n w} - 1) * g) meets V exactly at the origin.
    For each support point of g at most one n is excluded.
    """
    bounds = bounds or Bounds()
    dim = g.dim
    origin = zero_vector(dim)
    if support_in_subspace(g, V) != {origin}:
        raise PreconditionError(
            "periodizer support must meet the subspace exactly at the origin")
    if V.rank >= dim:
        raise PreconditionError("subspace must be proper")
    gc = apply_poly(g, c)
    if isinstance(gc, (PeriodicConfig, FiberSum)) and gc.is_zero():
        rows = tuple(tuple(int(i == j) for j in range(dim))
                     for i in range(dim))
    elif isinstance(gc, PeriodicConfig):
        rows = period_lattice(gc)
    else:
        raise PreconditionError(
            "g*c is not representable as a strongly periodic configuration")
    w = next((row for row in rows if not V.contains(row)), None)
    if w is None:
        raise PreconditionError("no period of g*c outside the subspace")
    for n in range(1, bounds.search + 1):
        f = difference_poly(vscale(n, w)) * g
        if support_in_subspace(f, V) == {origin}:
            _require_annihilation(f, c, bounds,
                                  "constructed annihilator failed validation",
                                  VerificationError)
            return f
    raise InconclusiveError(
        f"no admissible multiplier <= {bounds.search} clears the subspace",
        bounds.search)


# ---------------------------------------------------------------------------
# certificate search

def _test_product(vectors, parts):
    """Whether prod (X^v - 1) over `vectors` annihilates the sum of `parts`.

    A part is (None, c), c tested whole against the full product, or
    (w, p) for the fibers G_w of a fiber sum along the primitive direction
    w, p the lcm of their periods.  The vectors must hold at most one
    factor per direction, as every candidate of the search does.  For
    c = sum_w G_w the product annihilates c exactly when, for every w, it
    holds a factor s*w with p | s: X^{sw} - 1 kills a periodic fiber
    exactly when its period divides s, and G_w's canonical fibers lie on
    distinct lines.

    * Finite fiber sums along distinct directions add to zero only if each
      is zero: a nonzero periodic fiber has infinitely many nonzero points
      on its line, and a fiber along another direction meets that line at
      most once.  Every factor maps w-fiber sums to w-fiber sums, so the
      product kills c exactly when it kills each G_w.
    * A factor X^u - 1 with u not parallel to w kills no nonzero finite
      w-fiber sum: translation by u leaves no finite set of w-lines
      invariant.  So the product kills G_w exactly when its factor
      parallel to w does, and a part with none survives.
    """
    for w, part in parts:
        if w is not None:
            if not any(gcd(*v) % part == 0 for v in vectors
                       if primitive(v) == w):
                return False
            continue
        product = poly_product([difference_poly(v) for v in vectors])
        try:
            if not is_annihilated(product, part).holds:
                return False
        except EmptyRegionError:
            return False
    return True


def search_difference_annihilator(c, f: LaurentPoly, bound: int,
                                  avoid: SubspaceBasis | None = None
                                  ) -> DifferenceProduct:
    """Bounded search for a difference-product annihilator of c.

    Candidate directions come from support differences of f, corner by
    corner in lexicographic order.  Two deterministic phases: first every
    pairwise non-parallel subset of the raw differences (ordered by size,
    total 1-norm, then lexicographically), then iterative deepening over
    multiplied primitive directions with multiplier sum T and each
    multiplier in [1, bound].  The first certificate that annihilates c is
    returned; exhaustion is inconclusive, not a refutation.  The search
    does not check its answer again: `decompose_product` checks the product
    with `_require_annihilation` before it uses it, and `sparse_decompose`
    checks a fiber sum family by family.

    A fiber sum is read once into one part per fiber direction w, the lcm
    p_w of the periods of its fibers along w (`_test_product`); any other
    view is tested whole.  On a fiber sum phase 2 succeeds exactly when a
    corner yields every fiber direction and bound >= max_w p_w, so it is
    skipped otherwise, naming that least bound or that none helps.

    `avoid` filters out candidate vectors inside a subspace, for callers
    that need every factor transversal to it.  A window that f erodes away
    holds no evidence: the search is inconclusive with bound 0.
    """
    if len(f.support()) < 2:
        raise PreconditionError("need an annihilator with at least two terms")
    try:
        annihilates = is_annihilated(f, c).holds
    except EmptyRegionError as exc:
        raise InconclusiveError(f"f has no window evidence: {exc}", 0) from exc
    if not annihilates and not isinstance(c, PeriodicConfig):
        # only the support geometry of f seeds the search, so a periodizer
        # works too; strongly periodic views make every f a periodizer,
        # elsewhere that is not checkable and an annihilator is required
        raise PreconditionError("f neither annihilates nor visibly periodizes c")
    support = f.support()
    if isinstance(c, FiberSum):
        periods = {}
        for fib in c.fibers:
            periods[fib.direction] = lcm(periods.get(fib.direction, 1),
                                         fib.period)
        parts = sorted(periods.items())
    else:
        parts = [(None, c)]

    # phase 1: raw support differences with their observed scales
    diffs = [[z for z in {vsub(x, u) for x in support if x != u}
              if avoid is None or not avoid.contains(z)] for u in support]
    for cands in diffs:
        ordered = sorted(cands, key=lambda z: (sum(map(abs, z)), z))
        for size in range(1, len(ordered) + 1):
            for combo in combinations(ordered, size):
                if len({primitive(z) for z in combo}) == size and \
                        _test_product(combo, parts):
                    return DifferenceProduct(combo)

    # phase 2: iterative deepening over scaled primitive directions
    per_corner = [sorted({primitive(z) for z in cands})
                  for cands in diffs if cands]
    exhausted = ("no difference-product certificate within multiplier "
                 f"bound {bound}")
    if isinstance(c, FiberSum):
        if not any(periods.keys() <= set(prims) for prims in per_corner):
            raise InconclusiveError(
                f"{exhausted}; no bound suffices: no corner of f yields "
                "every fiber direction", bound)
        least = max(periods.values(), default=1)
        if least > bound:
            raise InconclusiveError(
                f"{exhausted}; bound {least} would suffice", bound)
    max_size = max((len(p) for p in per_corner), default=0)
    for total in range(1, bound * max_size + 1):
        for prims in per_corner:
            for size in range(1, len(prims) + 1):
                if total < size or total > size * bound:
                    continue
                for subset in combinations(prims, size):
                    for ks in _compositions(total, size, bound):
                        vecs = tuple(vscale(k, w) for k, w in zip(ks, subset))
                        if _test_product(vecs, parts):
                            return DifferenceProduct(vecs)
    raise InconclusiveError(exhausted, bound)


def _compositions(total, size, bound):
    """All size-tuples of ints in [1, bound] summing to total, lex order."""
    if size == 1:
        if 1 <= total <= bound:
            yield (total,)
        return
    for first in range(1, min(bound, total - size + 1) + 1):
        for rest in _compositions(total - first, size - 1, bound):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# k-periodic pipeline

def _merge_by_subspace(comps, bounds):
    groups = {}
    for comp in comps:
        groups.setdefault(comp.subspace, []).append(comp)
    merged = []
    for members in groups.values():
        if len(members) == 1:
            merged.append(members[0])
            continue
        view = add_views([m.view for m in members])
        periods, exact = _rescaled_periods(
            view, members[0].periods, all(m.exact_periods for m in members),
            bounds, "merge")
        # the member annihilators only kill their own summand; the product
        # annihilates the merged view
        merged.append(Component(view=view,
                                line_poly=poly_product(
                                    [m.line_poly for m in members]),
                                subspace=members[0].subspace,
                                periods=tuple(periods), exact_periods=exact))
    return merged


def _rescaled_periods(view, periods, exact, bounds, context):
    """Each period times its least multiple that is a period of `view`,
    and whether `exact` and every multiple are exact."""
    found = [_period_multiple(view, p, bounds, context) for p in periods]
    return ([vscale(m, p) for (m, _), p in zip(found, periods)],
            exact and all(ex for _, ex in found))


def _period_outside(comp, V):
    for p in comp.periods:
        if not V.contains(p):
            return p
    raise VerificationError(
        "component shares every period direction with the subspace (internal)")


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


def k_periodic_decompose(c, k: int, periodizers, bounds: Bounds | None = None
                         ) -> Decomposition:
    """Decompose c into finitely many k-periodic summands.

    For each subspace V of dimension level-1 it asks the family
    `periodizers` (LaurentPoly of c's dimension) for its first member whose
    support meets V exactly at the origin (`select_periodizer`).  It starts
    from c as one component with the trivial subspace and no periods.
    Each level upgrades that periodizer to an annihilator, extracts a
    transversal difference product, appends the other components' period
    factors, rewrites it into reduced form and splits each component
    again, accumulating one new independent period direction per level.
    Only finitely many subspaces are ever queried.
    """
    bounds = bounds or Bounds()
    dim = c.dim
    if not 1 <= k <= dim:
        raise PreconditionError(f"k must lie in [1, {dim}]")
    periodizers = list(periodizers)
    for i, f in enumerate(periodizers):
        if not isinstance(f, LaurentPoly) or f.dim != dim:
            raise PreconditionError(
                f"periodizer {i} is not a LaurentPoly of dimension {dim}")

    comps = [Component(view=c, line_poly=None,
                       subspace=SubspaceBasis.trivial(dim))]
    for level in range(1, k + 1):
        comps = _merge_by_subspace(comps, bounds)
        next_comps = []
        for i, comp in enumerate(comps):
            Vi = comp.subspace
            f = select_periodizer(periodizers, Vi)
            fstar = annihilator_from_periodizer(f, c, Vi, bounds)
            dp = search_difference_annihilator(c, fstar, bounds.search,
                                               avoid=Vi)
            extra = tuple(_period_outside(other, Vi)
                          for j, other in enumerate(comps) if j != i)
            full = DifferenceProduct(dp.vectors + extra)
            red = reduce_annihilator(full, comp.view, Vi, bounds)
            dec = decompose_product(red.polys(), comp.view, Vi, bounds)
            # component j of dec is annihilated by the factor of red.vectors[j]
            for v, sub in zip(red.vectors, dec.components):
                periods, exact = _rescaled_periods(
                    sub.view, comp.periods, comp.exact_periods, bounds,
                    f"level {level}")
                periods.insert(0, v)
                if rank_rational(periods) != level:
                    raise VerificationError(
                        "component period directions are dependent (internal)")
                next_comps.append(Component(
                    view=sub.view, line_poly=sub.line_poly,
                    subspace=SubspaceBasis(dim, periods),
                    periods=tuple(periods), exact_periods=exact,
                    gauge=sub.gauge))
        comps = next_comps

    return Decomposition(source=c, components=comps)
