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
a point read of a transfer component is a one-point segment.  A transfer
component keeps the last box it computed, and verification reads every lazy
component on one shared grid box, so each is evaluated once per job.  All
searches take caller-supplied bounds and report exhaustion as inconclusive
rather than fabricating verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
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
from .lattice import (CosetSystem, SubspaceBasis, is_zero_vector, parallel,
                      primitive, rank_rational, rational_nullspace_vector,
                      solve_rational, span_meets_trivially, vadd, vscale,
                      vsub, zero_vector)


@dataclass(frozen=True)
class Bounds:
    """Search limits; every potentially unbounded loop honors one of these."""
    search: int = 32        # multiplier/subset budget for certificate search
    period: int = 64        # largest period multiple probed
    k_max: int = 256        # translate-sequence length for stabilization
    patience: int = 8       # consecutive identical windows declaring a limit
    check_radius: int = 8   # half-width of evidence windows for evaluators

    def __post_init__(self):
        if self.check_radius < 1:
            raise PreconditionError(
                f"check_radius must be at least 1, got {self.check_radius}")

    def check_window(self, dim):
        r = self.check_radius
        return (-r,) * dim, (r,) * dim


def _require_annihilation(f, c, bounds, message, error=PreconditionError):
    """Check fc = 0: exactly where c holds all of fc, else on evidence (for
    evaluator views, the check window); returns the verdict."""
    verdict = c.annihilated_by(f, bounds.check_window(c.dim))
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

class _TransferEvaluator(LazyConfig):
    """A transfer summand: the solution c of phi*c = source, psi*c = 0 as
    a lazy view, per-line memoized evaluation of the coset recurrence.

    The view is the whole record of the summand: `phi`, `psi` and `source`
    state its equation, and `gauge` how it was pinned down, built once: the
    coset generators, the recurrence step w, the width n of the zero band
    and the monomial shift that starts supp(phi) at the origin.

    Every value is computed once.  A line is keyed by its point at
    recurrence coordinate 0 and the sweep direction; its list holds the n
    band zeros followed by the values swept so far, nearest the band first,
    so each step reads its predecessors by index and moves one step of w.

    Components are evaluated a box at a time by `values_on_box`: it walks
    the lines of direction w through the box, finds the recurrence
    coordinate of every line start, extends every line that falls short and
    copies each line's values into the box.  `values_on_segments` answers
    other lines the same way: it finds the recurrence line of every point
    asked for and extends each line once, to its farthest point.  A single
    point is a one-point segment.  Both extend lines through
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

    __slots__ = ("phi", "psi", "source", "gauge", "w", "n", "lam", "den",
                 "cosets", "lines", "sweeps", "box")

    def __init__(self, phi, psi, source, line, generators):
        (desc, offsets), dim = line, phi.dim
        w, shift, n = desc.direction, desc.anchor, offsets[-1]
        self.dim, self.phi, self.psi, self.source = dim, phi, psi, source
        self.w, self.n = w, n
        self.cosets = CosetSystem(dim, generators)
        self.lam, self.den = _first_coordinate_functional(generators, dim)
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
        """The recurrence coordinate a1 at q + k*step for k in range(count).

        The coset representative first comes back to that of q after m
        steps, m the order of step modulo the coset lattice (never when
        step leaves its span); from there on a1 rises by lam.(m*step)/den
        every m steps, so only the first m points are reduced.
        """
        rep, lam, den = self.cosets.representative, self.lam, self.den
        x = q
        z = z0 = rep(q)
        out = []
        for k in range(count):
            if k:
                x = vadd(x, step)
                z = rep(x)
                if z == z0:
                    rise = sum(map(mul, lam, vsub(x, q))) // den
                    return [out[j % k] + j // k * rise for j in range(count)]
            a, r = divmod(sum(l * (b - c) for l, b, c in zip(lam, x, z)), den)
            if r:
                raise PerdecError(
                    "non-integer recurrence coordinate (internal)")
            out.append(a)
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
                key = tuple([c + k * s - a * v
                             for c, s, v in zip(q, step, w)]), up
                pos = a if up else n - 1 - a
                if need.get(key, -1) < pos:
                    need[key] = pos
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
                base = vsub(x, vscale(a, w))
                runs.append((box_offset(lo, strides, x), base, a, e))
                if e >= n:
                    need[base, True] = e
                if a < 0:
                    need[base, False] = n - 1 - a
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


def _first_coordinate_functional(generators, dim):
    """Integer functional lam/den with lam.g0/den = 1 and lam.gj/den = 0."""
    n = len(generators)
    rhs = tuple(1 if j == 0 else 0 for j in range(n))
    # solve generators^T * lam = e0 over Q; generators have full row rank n
    cols = [tuple(g[i] for g in generators) for i in range(dim)]
    sol = solve_rational(cols, rhs)
    if sol is None:
        # dependent-looking transpose cannot happen for independent generators
        raise PerdecError("no coordinate functional (internal)")
    den = lcm(*(a.denominator for a in sol))
    lam = tuple(int(a * den) for a in sol)
    return lam, den


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
    _require_annihilation(psi, cprime, bounds,
                          "psi does not annihilate the source")
    _require_v_periodic(cprime, V, bounds, "source")
    return _TransferEvaluator(phi, psi, cprime, line,
                              (w1, w2) + V.integer_rows())


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
    _require_annihilation(poly_product(phis), c, bounds,
                          "the product does not annihilate the input")
    _require_v_periodic(c, V, bounds, "input")
    return Decomposition(source=c,
                         components=_decompose_rec(phis, c, V, bounds))


def _decompose_rec(phis, c, V, bounds):
    if len(phis) == 1:
        return [Component(view=c, line_poly=phis[0], subspace=V)]
    last = phis[-1]
    rest = apply_poly(last, c)
    lifted = []
    for comp in _decompose_rec(phis[:-1], rest, V, bounds):
        view = solve_transfer(last, comp.line_poly, comp.view, V, bounds)
        lifted.append(Component(view=view, line_poly=comp.line_poly,
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
        vecs = tuple(tuple(int(x) for x in v) for v in self.vectors)
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
    * span collision: when span{v_j, v_j'} meets V, an exact rational solve
      produces p'*v_j' = p*v_j + v0 with v0 in V; scaling by e's detected
      period multiple along v0 replaces v_j' by a multiple of v_j, and the
      now-parallel pair merges by the first rule.
    """
    bounds = bounds or Bounds()
    vecs = list(dp.vectors)
    for v in vecs:
        if V.contains(v):
            raise PreconditionError(f"factor direction {v} lies in the subspace")
    _validate_product(vecs, e, bounds, PreconditionError)
    changed = True
    while changed:
        changed = False
        for j in range(len(vecs)):
            for jp in range(len(vecs)):
                if j == jp:
                    continue
                if parallel(vecs[j], vecs[jp]):
                    vecs = _merge_parallel(vecs, j, jp, e, bounds)
                    changed = True
                    break
                if not span_meets_trivially(vecs[j], vecs[jp], V):
                    vecs = _rewrite_span_collision(vecs, j, jp, e, V, bounds)
                    changed = True
                    break
            if changed:
                break
    return DifferenceProduct(tuple(vecs))


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


def _rewrite_span_collision(vecs, j, jp, e, V, bounds):
    vj, vjp = vecs[j], vecs[jp]
    columns = [vj, vjp] + list(V.integer_rows())
    null = rational_nullspace_vector(columns)
    if null is None:
        raise PerdecError("span collision without a dependency (internal)")
    a, b = null[0], null[1]
    if a == 0 or b == 0:
        # a zero weight would put one of the factors inside V
        raise PerdecError("degenerate span dependency (internal)")
    den = lcm(*(x.denominator for x in null))
    pprime = int(b * den)
    p = -int(a * den)
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
                                n_bound: int, bounds: Bounds | None = None
                                ) -> LaurentPoly:
    """Upgrade a periodizer to an annihilator with the same V-transversality.

    g*c must be strongly periodic and representable; a period w of g*c
    outside V is read off its full period lattice, and n <= n_bound is
    chosen so that supp((X^{n w} - 1) * g) meets V exactly at the origin.
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
    for n in range(1, n_bound + 1):
        f = difference_poly(vscale(n, w)) * g
        if support_in_subspace(f, V) == {origin}:
            _require_annihilation(f, c, bounds,
                                  "constructed annihilator failed validation",
                                  VerificationError)
            return f
    raise InconclusiveError(
        f"no admissible multiplier <= {n_bound} clears the subspace", n_bound)


# ---------------------------------------------------------------------------
# certificate search

def _candidate_ok(avoid, z):
    return avoid is None or not avoid.contains(z)


def _test_product(vectors, parts):
    """Whether prod (X^v - 1) over `vectors` annihilates the sum of `parts`.

    Each part is (w, G): G holds the fibers of a fiber sum along the
    primitive direction w, or w is None and G is the whole input.  A None
    part is tested against the full product.  A fiber part is tested
    against the factors parallel to w alone, by this lemma: for
    c = sum_w G_w, the product annihilates c exactly when, for every w,
    prod_{v || w} (X^v - 1) annihilates G_w.

    * Finite fiber sums along distinct directions add to zero only if each
      is zero: a nonzero periodic fiber has infinitely many nonzero points
      on its line, and a fiber along another direction meets that line at
      most once.  Every factor maps w-fiber sums to w-fiber sums, so the
      product kills c exactly when it kills each G_w.
    * A factor X^u - 1 with u not parallel to w kills no nonzero finite
      w-fiber sum: translation by u leaves no finite set of w-lines
      invariant.  So the product kills G_w exactly when its factors
      parallel to w do, and a part with none of them survives.
    """
    for w, part in parts:
        factors = [v for v in vectors if w is None or primitive(v) == w]
        if not factors:
            return False
        product = poly_product([difference_poly(v) for v in factors])
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

    A fiber sum is split once into its parts along each fiber direction,
    and a candidate is tested on each part with its factors parallel to
    that direction (`_test_product`); any other view is tested whole.

    `avoid` filters out candidate vectors inside a subspace, for callers
    that need every factor transversal to it.
    """
    if len(f.support()) < 2:
        raise PreconditionError("need an annihilator with at least two terms")
    if not is_annihilated(f, c).holds and not isinstance(c, PeriodicConfig):
        # only the support geometry of f seeds the search, so a periodizer
        # works too; strongly periodic views make every f a periodizer,
        # elsewhere that is not checkable and an annihilator is required
        raise PreconditionError("f neither annihilates nor visibly periodizes c")
    support = f.support()
    if isinstance(c, FiberSum):
        parts = [(w, c.parallel_part(w))
                 for w in sorted({fib.direction for fib in c.fibers})]
    else:
        parts = [(None, c)]

    # phase 1: raw support differences with their observed scales
    for u in support:
        cands = sorted({vsub(ui, u) for ui in support if ui != u})
        cands = [z for z in cands if _candidate_ok(avoid, z)]
        by_size = sorted(
            range(len(cands)), key=lambda i: (sum(map(abs, cands[i])), cands[i]))
        ordered = [cands[i] for i in by_size]
        for size in range(1, len(ordered) + 1):
            for combo in combinations(ordered, size):
                dirs = [primitive(z) for z in combo]
                if len(set(dirs)) != size:
                    continue
                if _test_product(combo, parts):
                    return DifferenceProduct(tuple(combo))

    # phase 2: iterative deepening over scaled primitive directions
    per_corner = []
    for u in support:
        prims = sorted({primitive(vsub(ui, u)) for ui in support if ui != u})
        prims = [w for w in prims if _candidate_ok(avoid, w)]
        if prims:
            per_corner.append(prims)
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
    raise InconclusiveError(
        f"no difference-product certificate within multiplier bound {bound}",
        bound)


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
        groups.setdefault(comp.subspace.canonical_key(), []).append(comp)
    merged = []
    for key in sorted(groups, key=repr):
        members = groups[key]
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


def _oracle_periodizer(oracle, V):
    f = oracle(V)
    if not isinstance(f, LaurentPoly) or f.is_zero():
        raise PreconditionError("oracle returned no usable periodizer")
    if support_in_subspace(f, V) != {zero_vector(f.dim)}:
        raise PreconditionError(
            "oracle periodizer support does not meet the subspace at the "
            "origin only")
    return f


def k_periodic_decompose(c, k: int, periodizer_oracle, bounds: Bounds | None = None
                         ) -> Decomposition:
    """Decompose c into finitely many k-periodic summands.

    The oracle must return, for each queried subspace V of dimension
    level-1, a periodizer of c whose support meets V exactly at the origin.
    It starts from c as one component with the trivial subspace and no
    periods.  Each level upgrades the oracle's periodizer to an
    annihilator, extracts a transversal difference product, appends the
    other components' period factors, rewrites it into reduced form and
    splits each component again, accumulating one new independent period
    direction per level.  Only finitely many subspaces are ever queried.
    """
    bounds = bounds or Bounds()
    dim = c.dim
    if not 1 <= k <= dim:
        raise PreconditionError(f"k must lie in [1, {dim}]")

    comps = [Component(view=c, line_poly=None,
                       subspace=SubspaceBasis.trivial(dim))]
    for level in range(1, k + 1):
        comps = _merge_by_subspace(comps, bounds)
        next_comps = []
        for i, comp in enumerate(comps):
            Vi = comp.subspace
            f = _oracle_periodizer(periodizer_oracle, Vi)
            fstar = annihilator_from_periodizer(f, c, Vi, bounds.search,
                                                bounds)
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
