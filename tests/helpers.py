"""Shared test utilities: independent oracles and random generators.

The convolution oracle here is deliberately primitive (nested loops over a
dense array) so it shares no code path with the library's apply_poly, the
sparseness oracle counts every cube point by point through value_at, and
the decomposition check evaluates every component point by point, the
fiber-sum references canonicalize every shifted, scaled piece from raw data
with make_fiber, the configuration parser checks every item in a loop, and
the transfer source reference reads every source point through value_at,
the combination reference reads every part alone, point by point,
the certificate test multiplies out every factor and applies the
product to the whole view, the periodic reference keys every value by its
residue and reads each point through one hnf_reduce, and the sparse
decomposition reference replays the inductive proof with translate limits
and a two-factor split at every level, and the translate-limit reference
convolves by a monomial and rasterizes at every step.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from perdec import (FiberSum, LaurentPoly, PeriodicConfig, WindowConfig,
                    make_fiber)
from perdec.config import (LazyConfig, PeriodicFiber, Verdict,
                           _minimal_period, add_views, apply_poly, box_points,
                           box_size, is_annihilated, rasterize)
from perdec.decompose import _require_annihilation
from perdec.errors import (EmptyRegionError, OutOfDomainError,
                           PreconditionError, SchemaError, VerificationError)
from perdec.laurent import (difference_poly, non_parallel_directions,
                            poly_product)
from perdec.lattice import (fundamental_residues, hnf_reduce, hnf_rows,
                            lattice_determinant, primitive, vadd, vscale, vsub)
from perdec.serialize import _dim_of, _int, _int_vector
from perdec.sparse import (SparsenessReport, fiber_closed_form_constant,
                           fiber_extract)
from perdec.tiling import tile_polynomial


def window_from_function(lo, hi, fn):
    """The window of fn over [lo, hi], evaluated point by point."""
    return WindowConfig(lo, hi, [fn(x) for x in box_points(lo, hi)])


def periodic_from_function(dim, basis, fn):
    """The periodic configuration with the value fn(r) at each canonical
    residue r of the lattice that `basis` spans."""
    return PeriodicConfig(dim, basis, [
        fn(r) for r in fundamental_residues(hnf_rows(basis, dim), dim)])


class FunctionView(LazyConfig):
    """The lazy view of a plain function fn of a point tuple, read point by
    point: the simplest lazy view, built only by tests."""

    def __init__(self, dim, fn):
        self.dim = dim
        self.fn = fn

    def value_at(self, x):
        return self.fn(tuple(x))

    def values_on_box(self, lo, hi):
        return [self.value_at(x) for x in box_points(lo, hi)]

    def values_on_segments(self, segments):
        return [[self.value_at(x) for x in segment_points(*seg)]
                for seg in segments]


def reference_combination_values(parts, lo, hi):
    """sum k * v(x - e) over the parts (v, k, e) of a combination at each x
    of [lo, hi], every part read alone, point by point through value_at:
    the oracle for a combination's grouped box read."""
    out = []
    for x in box_points(lo, hi):
        total = 0
        for v, k, e in parts:
            total += k * v.value_at(x if e is None else vsub(x, e))
        out.append(total)
    return out


def pointwise_rasterize(c, lo, hi):
    """rasterize through value_at at every point: the box kernels' oracle."""
    return window_from_function(lo, hi, c.value_at)


def segment_points(q, step, count):
    """The points q + k*step for k in range(count), one step at a time."""
    out, x = [], tuple(q)
    for _ in range(count):
        out.append(x)
        x = vadd(x, step)
    return out


def assert_segments_match_points(c, segments, value=None):
    """c.values_on_segments, then c.values_on_line where c has one (the
    eager classes), equal value(x) (c.value_at by default) at every segment
    point, value and type; returns the point values."""
    value = c.value_at if value is None else value
    want = [[value(x) for x in segment_points(*seg)] for seg in segments]
    got = c.values_on_segments(segments)
    assert got == want
    assert [list(map(type, g)) for g in got] == \
        [list(map(type, w)) for w in want]
    if hasattr(c, "values_on_line"):
        for seg, vals in zip(segments, want):
            assert c.values_on_line(*seg) == vals
    return want


def reference_source_values(evaluator, segments):
    """_TransferEvaluator._source_values reading every source point through
    value_at: the point-read reference for the recurrence work."""
    return [[evaluator.source.value_at(x) for x in segment_points(*seg[2:])]
            for seg in segments]


def reference_transfer_value(view, x):
    """A transfer view's value at x from the one-point recurrence: the
    oracle for its box, segment and point reads.

    The recurrence coordinate a1 comes from the coset representative of x.
    Off the band, the line through x is walked from the band out to x, one
    step of w at a time, reading every source point through
    view.source.value_at; nothing is kept between calls.  A quotient is an
    int only when an int source term divides exactly, as in the view.
    """
    x = tuple(x)
    z = view.cosets.representative(x)
    a, r = divmod(sum(l * (b - c) for l, b, c in zip(view.lam, x, z)),
                  view.den)
    assert r == 0, "non-integer recurrence coordinate"
    n, w = view.n, view.w
    if 0 <= a < n:
        return 0
    # phi = sum over offsets t of alpha_t X^(shift + t*w), from the sweep
    # table of the upward direction
    _, shift, a0, rest = view.sweeps[True]
    alphas = {0: a0, **dict(rest)}
    base = vsub(x, vscale(a, w))
    vals = {t: 0 for t in range(n)}  # the band, by line coordinate t

    def point(t):
        return vadd(base, vscale(t, w))

    def quotient(s, d):
        q = Fraction(s) / d
        return int(q) if isinstance(s, int) and q.denominator == 1 else q

    if a >= n:
        # phi*c = c' at point(t) + shift gives c(t) through alpha_0
        for t in range(n, a + 1):
            s = view.source.value_at(vadd(point(t), shift))
            for off, coef in alphas.items():
                if off:
                    s -= coef * vals[t - off]
            vals[t] = quotient(s, alphas[0])
    else:
        # the same equation at point(t + n) + shift gives c(t) through
        # alpha_n
        for t in range(-1, a - 1, -1):
            s = view.source.value_at(vadd(point(t + n), shift))
            for off, coef in alphas.items():
                if off != n:
                    s -= coef * vals[t + n - off]
            vals[t] = quotient(s, alphas[n])
    return vals[a]


def naive_convolution(terms, window: WindowConfig):
    """Dense nested-loop convolution; returns (lo, hi, {point: value}).

    terms is a list of (exponent, coefficient).  The output box is the set
    of points u with every u - exponent inside the window, computed from
    the extreme exponents rather than by the library's erosion helper; it
    is empty (some lo > hi) when the window is too small.
    """
    dim = window.dim
    out = {}
    lo = [window.lo[i] + max(e[i] for e, _ in terms) for i in range(dim)]
    hi = [window.hi[i] + min(e[i] for e, _ in terms) for i in range(dim)]
    if any(a > b for a, b in zip(lo, hi)):
        return tuple(lo), tuple(hi), out

    def rec(prefix):
        i = len(prefix)
        if i == dim:
            u = tuple(prefix)
            total = 0
            for e, k in terms:
                total += k * window.value_at(
                    tuple(u[j] - e[j] for j in range(dim)))
            out[u] = total
            return
        for x in range(lo[i], hi[i] + 1):
            rec(prefix + [x])

    rec([])
    return tuple(lo), tuple(hi), out


def _fiber_cube_points(c: FiberSum, m, t):
    """Support points of c inside the cube C_m + t (exact, per line)."""
    pts = set()
    for f in c.fibers:
        lo_j, hi_j = None, None
        empty = False
        for i in range(c.dim):
            lo_i, hi_i = t[i] - m, t[i] + m
            d = f.direction[i]
            if d == 0:
                if not lo_i <= f.anchor[i] <= hi_i:
                    empty = True
                    break
                continue
            a, b = lo_i - f.anchor[i], hi_i - f.anchor[i]
            if d < 0:
                a, b, d = -b, -a, -d
            j0 = -((-a) // d)  # exact ceil(a / d)
            j1 = b // d        # exact floor(b / d)
            lo_j = j0 if lo_j is None else max(lo_j, j0)
            hi_j = j1 if hi_j is None else min(hi_j, j1)
        if empty or lo_j is None or lo_j > hi_j:
            continue
        for j in range(lo_j, hi_j + 1):
            if f.vals[j % f.period]:
                pts.add(vadd(f.anchor, vscale(j, f.direction)))
    return {p for p in pts if c.value_at(p) != 0}


def _cube_count(c, m, t):
    return sum(1 for x in box_points(tuple(v - m for v in t),
                                     tuple(v + m for v in t))
               if c.value_at(x) != 0)


def reference_sparseness(c, a: int, m_max: int) -> SparsenessReport:
    """Point-by-point sparseness scan: the oracle for check_sparseness.

    Same translate sets, stop rules and exact labels as the library, but
    each cube is counted by evaluating c at its points (fiber sums: at the
    points of the fiber lines that cross it).
    """
    if isinstance(c, FiberSum):
        reach = min(8, max((max(map(abs, f.anchor)) + f.period
                            for f in c.fibers), default=0))
        checked = []
        violation = None
        for m in range(1, m_max + 1):
            best = 0
            r = reach + m
            for t in box_points((-r,) * c.dim, (r,) * c.dim):
                n = len(_fiber_cube_points(c, m, t))
                if n > best:
                    best = n
                    if n > a * m and violation is None:
                        violation = (m, t)
            checked.append((m, best))
        ok = violation is None
        exact = ok and a >= fiber_closed_form_constant(c)
        return SparsenessReport(constant=a, ok=ok, exact=exact,
                                checked=tuple(checked), violation=violation)

    if isinstance(c, PeriodicConfig):
        if c.is_zero():
            return SparsenessReport(constant=a, ok=True, exact=True,
                                    checked=((1, 0),))
        checked = []
        for m in range(1, m_max + 1):
            best = 0
            for t in fundamental_residues(c.lattice_rows, c.dim):
                n = _cube_count(c, m, t)
                best = max(best, n)
                if n > a * m:
                    return SparsenessReport(
                        constant=a, ok=False, exact=True,
                        checked=tuple(checked + [(m, n)]), violation=(m, t))
            checked.append((m, best))
        return SparsenessReport(constant=a, ok=True, exact=False,
                                checked=tuple(checked))

    checked = []
    for m in range(1, m_max + 1):
        tlo = tuple(v + m for v in c.lo)
        thi = tuple(v - m for v in c.hi)
        if any(x > y for x, y in zip(tlo, thi)):
            break
        best = 0
        for t in box_points(tlo, thi):
            n = _cube_count(c, m, t)
            best = max(best, n)
            if n > a * m:
                return SparsenessReport(
                    constant=a, ok=False, exact=False,
                    checked=tuple(checked + [(m, n)]), violation=(m, t))
        checked.append((m, best))
    return SparsenessReport(constant=a, ok=True, exact=False,
                            checked=tuple(checked))


def reference_verify_cotiler(tile, c):
    """verify_cotiler of a window or periodic c by building the product:
    apply_poly(tile_polynomial(tile), c), then count its ones."""
    bad = [v for v in c.values if v not in (0, 1)]
    if bad:
        raise PreconditionError(
            f"co-tiler values must be 0/1; found {sorted(set(bad))[:4]}")
    fc = apply_poly(tile_polynomial(tile), c)
    holds = fc.values.count(1) == len(fc.values)
    if isinstance(fc, PeriodicConfig):
        return Verdict.exactly(holds)
    return Verdict.on_window(holds, fc.lo, fc.hi)


def reference_verify_on_window(dec, lo, hi):
    """Point-by-point Decomposition.verify_on_window: its oracle.

    A window component is checked on its own eroded box by the nested-loop
    convolution; every other component at each point of [lo, hi] by the
    sum of k * view(x - e) over the terms of its line polynomial.  The sum
    check adds the components' values point by point.
    """
    per_comp = []
    for comp in dec.components:
        terms = comp.line_poly.terms()
        if isinstance(comp.view, WindowConfig):
            olo, ohi, out = naive_convolution(terms, comp.view)
            if any(a > b for a, b in zip(olo, ohi)):
                raise EmptyRegionError("window eroded away")
            ok = all(v == 0 for v in out.values())
        else:
            ok = all(sum(k * comp.view.value_at(vsub(x, e)) for e, k in terms)
                     == 0 for x in box_points(lo, hi))
        per_comp.append(ok)
    sum_ok = all(sum(comp.view.value_at(x) for comp in dec.components)
                 == dec.source.value_at(x) for x in box_points(lo, hi))
    return {"box": (lo, hi), "sum": sum_ok, "annihilation": per_comp,
            "ok": sum_ok and all(per_comp)}


def reference_test_product(vectors, c):
    """Whether prod (X^v - 1) over `vectors` annihilates c: every factor
    multiplied out and the whole product applied to c at once."""
    product = poly_product([difference_poly(v) for v in vectors])
    try:
        return is_annihilated(product, c).holds
    except EmptyRegionError:
        return False


def reference_sparse_decompose(c: FiberSum, phis, bounds):
    """sparse_decompose of a fiber sum by induction on the factor count.

    The derived sum under the last factor is decomposed recursively; each
    piece is matched against the translate limit of c along its direction
    (the parallel part), which is then split in two by
    `_reference_split2`, and the last family is the residual.  The
    multiplied-out product is checked at every level.
    """
    dirs = non_parallel_directions(phis)
    _require_annihilation(poly_product(phis), c, bounds,
                          "the product does not annihilate the input")
    if len(phis) == 1:
        return [fiber_extract(c, dirs[0], bounds.period)]
    last = phis[-1]
    parts = reference_sparse_decompose(apply_poly(last, c), phis[:-1], bounds)
    families = []
    for i, part in enumerate(parts):
        e = c.parallel_part(dirs[i])
        if apply_poly(last, e) != part:
            raise VerificationError(f"limit along {dirs[i]} does not project "
                                    "onto the derived family")
        families.append(_reference_split2(e, phis[i], last, bounds)[0])
    residual = add_views([c] + families, [1] + [-1] * len(families))
    cn = fiber_extract(residual, dirs[-1], bounds.period)
    if not apply_poly(last, cn).is_zero():
        raise VerificationError("residual family is not annihilated")
    families.append(cn)
    if not add_views([c] + families, [1] + [-1] * len(families)).is_zero():
        raise VerificationError("family sum does not reproduce the input")
    return families


def _reference_split2(c: FiberSum, phi, psi, bounds):
    """The two-factor split of a fiber sum, every identity checked."""
    v, u = non_parallel_directions([phi, psi])
    _require_annihilation(phi * psi, c, bounds,
                          "phi*psi does not annihilate the input")
    e1 = apply_poly(psi, c)
    _require_annihilation(phi, e1, bounds, "psi*c is not annihilated by phi")
    ext1 = fiber_extract(e1, v, bounds.period)
    ext2 = fiber_extract(apply_poly(phi, c), u, bounds.period)
    c1 = c.parallel_part(v)
    c2 = c.parallel_part(u)
    checks = [
        ("phi*c1 = 0", apply_poly(phi, c1).is_zero()),
        ("psi*c1 = psi*c", apply_poly(psi, c1) == ext1),
        ("psi*c2 = 0", apply_poly(psi, c2).is_zero()),
        ("phi*c2 = phi*c", apply_poly(phi, c2) == ext2),
        ("c = c1 + c2", add_views([c, c1, c2], [1, -1, -1]).is_zero()),
    ]
    for name, ok in checks:
        if not ok:
            raise VerificationError(f"split identity failed: {name}")
    return (fiber_extract(c1, v, bounds.period),
            fiber_extract(c2, u, bounds.period))


def reference_translate_limit(c, step, window, k_max, patience):
    """The translate-sequence limit by its first definition: translate k is
    the convolution by X^(k*step), rasterized on `window`.  ("limit", the
    window repeated `patience` times in a row), or ("inconclusive", bound):
    k_max when no window repeats, k at the first translate k whose window
    leaves c's domain."""
    prev, run = None, 0
    for k in range(k_max + 1):
        moved = c.convolve([(vscale(k, step), 1)])
        try:
            cur = rasterize(moved, *window)
        except OutOfDomainError:
            return "inconclusive", k
        run = run + 1 if cur == prev else 1
        if run >= patience:
            return "limit", cur
        prev = cur
    return "inconclusive", k_max


def reference_period_multiple(c: FiberSum, w, bound):
    """The least k in [1, bound] whose translate of c by k*w is c, found by
    comparing the translates one k at a time, or None."""
    for k in range(1, bound + 1):
        if c.convolve([(vscale(k, w), 1)]) == c:
            return k
    return None


def fiber_parts(c: FiberSum):
    """The certificate test's parts of a fiber sum: (w, fibers along w)
    for each fiber direction w."""
    return [(w, c.parallel_part(w))
            for w in sorted({f.direction for f in c.fibers})]


def reference_fiber_sum(raw):
    """Fibers of the sum of raw (anchor, direction, vals) pieces, sorted.

    The make_fiber-per-piece path: every piece is canonicalized from raw
    data, pieces on one line are summed on an lcm-period table, and every
    line is canonicalized again with make_fiber (None when it vanishes).
    """
    lines = {}
    for anchor, direction, vals in raw:
        f = make_fiber(anchor, direction, vals)
        if f is None:
            continue
        a = lines.get(f.line_key())
        if a is None:
            lines[f.line_key()] = f.vals
        else:
            b = f.vals
            p = len(a) * len(b) // gcd(len(a), len(b))
            lines[f.line_key()] = tuple(a[j % len(a)] + b[j % len(b)]
                                        for j in range(p))
    out = [make_fiber(anchor, direction, vals)
           for (direction, anchor), vals in lines.items()]
    return tuple(sorted((f for f in out if f is not None),
                        key=lambda f: (f.direction, f.anchor)))


def reference_apply_poly_fibers(f: LaurentPoly, c: FiberSum):
    return reference_fiber_sum(
        [(vadd(fib.anchor, e), fib.direction, [k * v for v in fib.vals])
         for e, k in f.terms() for fib in c.fibers])


def reference_add_views_fibers(views, coeffs):
    return reference_fiber_sum(
        [(fib.anchor, fib.direction, [k * v for v in fib.vals])
         for k, c in zip(coeffs, views) if k for fib in c.fibers])


def reference_translate_fibers(c: FiberSum, t):
    return reference_fiber_sum([(vadd(f.anchor, t), f.direction, f.vals)
                                for f in c.fibers])


def reference_scaled_fibers(c: FiberSum, k):
    if k == 0:
        return ()
    return reference_fiber_sum([(f.anchor, f.direction, [k * v for v in f.vals])
                                for f in c.fibers])


def reference_parallel_part_fibers(c: FiberSum, direction):
    w = primitive(direction)
    return reference_fiber_sum([(f.anchor, f.direction, f.vals)
                                for f in c.fibers if f.direction == w])


def assert_canonical_fibers(fibers):
    """Each fiber keeps the PeriodicFiber invariants, checked from scratch;
    the lines are distinct and sorted by (direction, anchor)."""
    for f in fibers:
        w = f.direction
        g = 0
        for a in w:
            g = gcd(g, abs(a))
        assert g == 1, f"direction {w} is not primitive"
        pivot = next(i for i, a in enumerate(w) if a)
        assert w[pivot] > 0, f"direction {w} is not sign normalized"
        # canonical anchor: the pivot coordinate lies in [0, w[pivot])
        assert 0 <= f.anchor[pivot] < w[pivot], f"anchor {f.anchor} of {w}"
        n = len(f.vals)
        assert any(f.vals), f"all-zero fiber {f}"
        for p in range(1, n):
            if n % p == 0:
                assert any(f.vals[j] != f.vals[(j + p) % n]
                           for j in range(n)), f"period of {f} is not minimal"
    keys = [(f.direction, f.anchor) for f in fibers]
    assert keys == sorted(set(keys)), "fiber lines repeat or are unsorted"


def reference_config_from_obj(obj):
    """serialize.config_from_obj checking every item in a loop: its oracle.

    This is the parser as it was before the bulk checks, so the two must
    return equal configurations or raise the same SchemaError message.
    """
    if not isinstance(obj, dict):
        raise SchemaError("configuration document must be an object")
    kind = obj.get("kind")
    dim = _dim_of(obj)
    if kind == "window":
        lo = _int_vector(obj.get("lo"), dim, "lo")
        hi = _int_vector(obj.get("hi"), dim, "hi")
        values = obj.get("values")
        if not isinstance(values, list):
            raise SchemaError("window needs a 'values' list")
        if any(a > b for a, b in zip(lo, hi)):
            raise SchemaError(f"empty window {lo}..{hi}")
        if len(values) != box_size(lo, hi):
            raise SchemaError("window value count does not match the box")
        return WindowConfig(lo, hi, [_int(v, "value") for v in values])
    if kind == "periodic":
        basis = obj.get("basis")
        if not isinstance(basis, list) or len(basis) != dim:
            raise SchemaError("periodic basis must list dim generators")
        gens = [_int_vector(g, dim, "generator") for g in basis]
        raw = obj.get("values")
        if not isinstance(raw, list):
            raise SchemaError("periodic needs a 'values' list")
        values = {}
        for item in raw:
            if not isinstance(item, dict) or set(item) != {"res", "val"}:
                raise SchemaError("each value needs exactly 'res' and 'val'")
            res = _int_vector(item["res"], dim, "residue")
            if res in values:
                raise SchemaError(f"duplicate residue {list(res)}")
            values[res] = _int(item["val"], "value")
        rows = hnf_rows(gens, dim)
        if len(rows) != dim:
            raise SchemaError(
                "invalid periodic configuration: period basis is singular")
        # count first: a huge lattice with few values must not enumerate its
        # residues; with the count right, every residue present means the
        # keys are exactly the residues
        if len(values) != lattice_determinant(rows, dim) or not all(
                r in values for r in fundamental_residues(rows, dim)):
            raise SchemaError(
                "invalid periodic configuration: periodic values must be "
                "keyed by exactly the canonical residues")
        return PeriodicConfig(dim, gens, [values[r] for r in
                                          fundamental_residues(rows, dim)])
    if kind == "fibersum":
        raw = obj.get("fibers")
        if not isinstance(raw, list):
            raise SchemaError("fibersum needs a 'fibers' list")
        fibers = []
        for item in raw:
            if (not isinstance(item, dict)
                    or set(item) != {"anchor", "dir", "period", "vals"}):
                raise SchemaError(
                    "each fiber needs exactly 'anchor', 'dir', 'period', 'vals'")
            anchor = _int_vector(item["anchor"], dim, "anchor")
            direction = _int_vector(item["dir"], dim, "direction")
            period = _int(item["period"], "period")
            vals = item["vals"]
            if not isinstance(vals, list) or len(vals) != period or period < 1:
                raise SchemaError("fiber 'vals' must list exactly 'period' values")
            vals = [_int(v, "fiber value") for v in vals]
            try:
                fiber = PeriodicFiber(anchor, direction,
                                      vals[:_minimal_period(vals)])
            except Exception as exc:
                raise SchemaError(f"invalid fiber: {exc}") from exc
            fibers.append(fiber)
        return FiberSum(dim, fibers)
    raise SchemaError(f"unknown configuration kind {kind!r}")


class ResidueDict:
    """A periodic configuration keyed by residue: the flat table's oracle.

    `table` maps each canonical residue of c's lattice to its value, taken
    from c.values in the order of fundamental_residues; a point is read
    through one hnf_reduce and one dict lookup, with no box or row layout.
    """

    def __init__(self, c):
        self.rows = c.lattice_rows
        self.table = dict(zip(fundamental_residues(self.rows, c.dim),
                              c.values))

    def __call__(self, x):
        return self.table[hnf_reduce(x, self.rows)]


def guard_periodic_reads(monkeypatch):
    """Fail every PeriodicConfig box read that is at least twice as wide as
    the residue box on some axis, before it reads, so that a read grown by
    a far support fails fast rather than exhausting memory."""
    values_on_box = PeriodicConfig.values_on_box

    def guarded(self, lo, hi):
        assert all(b - a + 1 < 2 * (t + 1) for a, b, t
                   in zip(lo, hi, self.residue_box[1])), (lo, hi)
        return values_on_box(self, lo, hi)
    monkeypatch.setattr(PeriodicConfig, "values_on_box", guarded)


def random_poly(rng: random.Random, dim, max_terms=5, exp_range=4,
                coef_range=9):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(-exp_range, exp_range) for _ in range(dim))
        coef = rng.randint(-coef_range, coef_range)
        if coef:
            terms[exp] = coef
    return LaurentPoly(dim, terms)


def random_hnf_basis(rng: random.Random, dim, det_bound):
    """Random full-rank HNF-style rows with determinant at most det_bound."""
    while True:
        diag = [rng.randint(1, max(1, int(det_bound ** (1 / dim)) + 2))
                for _ in range(dim)]
        det = 1
        for p in diag:
            det *= p
        if det <= det_bound:
            break
    rows = []
    for i in range(dim):
        row = [0] * dim
        row[i] = diag[i]
        for j in range(i + 1, dim):
            row[j] = rng.randrange(diag[j]) if diag[j] > 1 else 0
        rows.append(tuple(row))
    return rows


def random_periodic(rng: random.Random, dim, det_bound, value_range=5):
    basis = random_hnf_basis(rng, dim, det_bound)
    return periodic_from_function(
        dim, basis,
        lambda r: rng.randint(-value_range, value_range))


def random_fiber_family(rng: random.Random, dim, direction, max_fibers=6,
                        max_period=8, anchor_range=6, value_range=4):
    """A random family of fibers parallel to one direction."""
    fibers = []
    for _ in range(rng.randint(1, max_fibers)):
        anchor = tuple(rng.randint(-anchor_range, anchor_range)
                       for _ in range(dim))
        period = rng.randint(1, max_period)
        vals = [rng.randint(-value_range, value_range) for _ in range(period)]
        if all(v == 0 for v in vals):
            vals[rng.randrange(period)] = 1
        fibers.append(make_fiber(anchor, direction, vals))
    return FiberSum(dim, fibers)


DIRECTIONS_2D = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (1, -2)]
DIRECTIONS_3D = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 2),
                 (0, 1, -1), (2, 1, 1)]
