"""Seeded input corpora for the benchmark workloads (stdlib only).

Each workload is a fixed list of CLI jobs.  The generator writes every job's
JSON inputs into a directory and returns the jobs in their fixed order; the
same (workload, seed) pair always yields byte-identical files and argv lists.

The structure that sets a job's cost (window sides, factor directions and
multipliers, fiber counts and periods, lattice determinants, polynomial term
counts) is fixed per schedule slot, so every seed gives the same mix of job
sizes; the seed draws the values, anchors, exponents and coefficients.  That
keeps the seed-to-seed spread of the timings small while the inputs change.

Every generated input is valid and every job succeeds (or, for the planned
exit-2 jobs, is inconclusive) at the commit that defines the benchmark, so
any failure a run reports is a defect, not a feature of the data.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from itertools import product
from math import gcd

WORKLOADS = ("decompose", "convolve", "sparse")

DIRS2 = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (1, -2), (2, -1)]


# ---------------------------------------------------------------------------
# small exact helpers shared with the oracles

def lcm(a, b):
    return a * b // gcd(a, b)


def line_point(p, w):
    """(canonical anchor, parameter) of p on the line p + Z*w.

    The canonical anchor is the line point whose first coordinate along the
    direction's pivot lies in [0, w[pivot]); w must be primitive with a
    positive pivot.
    """
    j = next(i for i, a in enumerate(w) if a)
    q = p[j] // w[j]
    return tuple(a - q * b for a, b in zip(p, w)), q


def minimal_period(vals):
    n = len(vals)
    for p in range(1, n + 1):
        if n % p == 0 and all(vals[i] == vals[i % p] for i in range(n)):
            return p
    return n


def poly_doc(terms, dim):
    """Polynomial document from {exponent: coefficient}."""
    return {"dim": dim,
            "terms": [{"exp": list(e), "coef": c}
                      for e, c in sorted(terms.items()) if c]}


def difference_terms(v):
    return {tuple(v): 1, (0,) * len(v): -1}


def three_term(v):
    """1 + X^v + X^{2v}: a unit-extreme line polynomial."""
    return {(0,) * len(v): 1, tuple(v): 1, tuple(2 * a for a in v): 1}


def poly_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def fibersum_doc(dim, fibers):
    """fibers: {(direction, anchor): vals}; vals already minimal."""
    items = sorted(fibers.items())
    return {"kind": "fibersum", "dim": dim,
            "fibers": [{"anchor": list(a), "dir": list(w),
                        "period": len(vals), "vals": list(vals)}
                       for (w, a), vals in items]}


def periodic_doc(rows, table):
    """rows: HNF rows (upper triangular); table: {residue: value}."""
    dim = len(rows)
    diag = [rows[i][i] for i in range(dim)]
    return {"kind": "periodic", "dim": dim, "basis": [list(r) for r in rows],
            "values": [{"res": list(r), "val": table[r]}
                       for r in product(*(range(p) for p in diag))]}


def window_doc(lo, hi, values):
    return {"kind": "window", "dim": len(lo), "lo": list(lo), "hi": list(hi),
            "values": values}


def box(lo, hi):
    return product(*(range(a, b + 1) for a, b in zip(lo, hi)))


def centered(sides):
    lo = tuple(-(s // 2) for s in sides)
    return lo, tuple(a + s - 1 for a, s in zip(lo, sides))


def window_flag(lo, hi):
    return "--window=" + ",".join(f"{a}..{b}" for a, b in zip(lo, hi))


# ---------------------------------------------------------------------------
# corpus container

class Corpus:
    """Writes input files and collects jobs for one workload."""

    def __init__(self, workload, seed, root):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.rng = random.Random(f"perfbench:{workload}:{seed}")
        self.shape = None  # set per schedule slot by build()
        self.jobs = []
        os.makedirs(root, exist_ok=True)

    def write(self, name, obj):
        path = os.path.join(self.root, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
        return path

    def add(self, kind, argv, inputs, expect_exit=0, **check):
        """argv uses the input names; run.py prefixes --out per execution."""
        idx = len(self.jobs)
        paths = {}
        for name, obj in inputs.items():
            paths[name] = self.write(f"j{idx:03d}_{name}.json", obj)
        argv = [paths.get(a, a) for a in argv]
        self.jobs.append({"index": idx, "kind": kind, "argv": argv,
                          "inputs": paths, "expect_exit": expect_exit,
                          "check": check})

    def digest(self):
        """SHA-256 over every input file and argv, with paths made relative."""
        h = hashlib.sha256()
        for job in self.jobs:
            rel = [os.path.relpath(a, self.root) if a.startswith(self.root)
                   else a for a in job["argv"]]
            h.update(json.dumps(rel).encode())
            for name in sorted(job["inputs"]):
                with open(job["inputs"][name], "rb") as fh:
                    h.update(fh.read())
        return h.hexdigest()

    def size(self):
        """Total number of input points and values across the corpus."""
        total = 0
        for job in self.jobs:
            for path in job["inputs"].values():
                with open(path, "rb") as fh:
                    total += _count_values(json.load(fh))
        return total


def _count_values(obj):
    if isinstance(obj, list):
        return sum(_count_values(x) for x in obj)
    if not isinstance(obj, dict):
        return 0
    kind = obj.get("kind")
    if kind in ("window", "periodic"):
        return len(obj["values"])
    if kind == "fibersum":
        return sum(len(f["vals"]) for f in obj["fibers"])
    if "terms" in obj:
        return len(obj["terms"])
    if "cells" in obj:
        return len(obj["cells"])
    return 0


# ---------------------------------------------------------------------------
# value builders

def _torus_orbit_table(rng, sizes, step, vrange):
    """Random values on Z^d / diag(sizes) that are invariant under `step`."""
    table = {}
    for r in product(*(range(n) for n in sizes)):
        if r in table:
            continue
        v = rng.randint(-vrange, vrange)
        x = r
        while x not in table:
            table[x] = v
            x = tuple((a + s) % n for a, s, n in zip(x, step, sizes))
    return table


def _periodic_part(rng, sizes, v, factor):
    """An L-periodic part annihilated by its line factor.

    ("diff", k): invariant under k*v.  ("three", 1): g - g(. - v) for a
    3v-invariant g, which 1 + X^v + X^{2v} annihilates.
    """
    kind, k = factor
    if kind == "diff":
        return _torus_orbit_table(rng, sizes, tuple(k * a for a in v), 4)
    g = _torus_orbit_table(rng, sizes, tuple(3 * a for a in v), 4)
    return {r: g[r] - g[tuple((a - b) % n for a, b, n in zip(r, v, sizes))]
            for r in g}


def _factor_terms(v, factor):
    kind, k = factor
    if kind == "diff":
        return difference_terms(tuple(k * a for a in v))
    return three_term(v)


def _random_vals(rng, period, vrange):
    while True:
        vals = [rng.randint(-vrange, vrange) for _ in range(period)]
        if any(vals) and minimal_period(vals) == period:
            return vals


def _fiber_family(rng, w, periods, spread, zero_sum3=False):
    """One fiber per entry of periods, on distinct lines parallel to w.

    Returns {(w, anchor): vals}; zero_sum3 gives 3-periodic values summing
    to zero, which 1 + X^w + X^{2w} annihilates.
    """
    count = len(periods)
    if count > 2 * spread + 1:
        raise ValueError(f"{count} distinct lines need a spread of at least "
                         f"{(count - 1) // 2}")
    out = {}
    while len(out) < count:
        p = tuple(rng.randint(-spread, spread) for _ in w)
        anchor, _ = line_point(p, w)
        if (w, anchor) in out:
            continue
        if zero_sum3:
            while True:
                a, b = rng.randint(-4, 4), rng.randint(-4, 4)
                vals = [a, b, -a - b]
                if any(vals):
                    break
        else:
            vals = _random_vals(rng, periods[len(out)], 4)
        out[(w, anchor)] = vals
    return out


def _rod_pair(rng, n):
    """Co-tiler [(x + s*y) mod n = 0] of two independent rods of length n."""
    while True:
        s = rng.randrange(n)
        ds = [d for d in ((0, 1), (1, 1), (-1, 1), (1, 2), (2, 1), (1, -1))
              if gcd(abs(d[0] + s * d[1]), n) == 1]
        if ds:
            break
    d = rng.choice(ds)
    table = {r: int((r[0] + s * r[1]) % n == 0)
             for r in product(range(n), range(n))}
    tiles = [{"dim": 2, "cells": [[i, 0] for i in range(n)]},
             {"dim": 2, "cells": [[j * d[0], j * d[1]] for j in range(n)]}]
    return periodic_doc(((n, 0), (0, n)), table), tiles


def _parity_rods_3d():
    table = {r: int(sum(r) % 2 == 0) for r in product(range(2), repeat=3)}
    tiles = [{"dim": 3, "cells": [[0, 0, 0], e]}
             for e in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]
    return periodic_doc(((2, 0, 0), (0, 2, 0), (0, 0, 2)), table), tiles


def _tile_poly(tile):
    dim = tile["dim"]
    return poly_doc({tuple(-a for a in c): 1 for c in tile["cells"]}, dim)


# ---------------------------------------------------------------------------
# job builders: one per job kind, each taking its structural parameters

# torus sizes with determinant at most 1200
_TORI = [(20, 30), (24, 36), (30, 40), (24, 50), (30, 30), (36, 32)]


def _periodic_sum(rng, sizes, dirs, factors):
    table = {r: 0 for r in product(*(range(n) for n in sizes))}
    for v, fac in zip(dirs, factors):
        part = _periodic_part(rng, sizes, v, fac)
        for r in table:
            table[r] += part[r]
    return periodic_doc(((sizes[0], 0), (0, sizes[1])), table)


def job_factors_periodic(cb, nf, side, three):
    """decompose --factors on a periodic sum of nf line-annihilated parts."""
    rng, shape = cb.rng, cb.shape
    dirs = shape.sample(DIRS2, nf)
    factors = [("diff", shape.randint(1, 3)) for _ in dirs]
    if three:
        factors[shape.randrange(nf)] = ("three", 1)
    sizes = shape.choice(_TORI)
    lo, hi = centered((side, side))
    cb.add("decompose-factors",
           [window_flag(lo, hi), "decompose", "config", "--factors",
            "factors"],
           {"config": _periodic_sum(rng, sizes, dirs, factors),
            "factors": [poly_doc(_factor_terms(v, f), 2)
                        for v, f in zip(dirs, factors)]},
           oracle="decomposition", lo=lo, hi=hi)


def job_factors_fibers(cb, nf, side, three):
    """decompose --factors on a fiber sum with nf directions."""
    rng, shape = cb.rng, cb.shape
    dirs = shape.sample(DIRS2, nf)
    three_at = shape.randrange(nf) if three else -1
    fibers, factors = {}, []
    for i, w in enumerate(dirs):
        periods = [shape.choice((1, 2, 3, 4, 6))
                   for _ in range(shape.randint(3, 6))]
        fam = _fiber_family(rng, w, periods, 12, zero_sum3=(i == three_at))
        fibers.update(fam)
        if i == three_at:
            factors.append(three_term(w))
        else:
            period = 1
            for vals in fam.values():
                period = lcm(period, len(vals))
            factors.append(difference_terms(tuple(period * a for a in w)))
    lo, hi = centered((side, side))
    cb.add("decompose-factors",
           [window_flag(lo, hi), "decompose", "config", "--factors",
            "factors"],
           {"config": fibersum_doc(2, fibers),
            "factors": [poly_doc(f, 2) for f in factors]},
           oracle="decomposition", lo=lo, hi=hi)


def job_annihilator(cb, side):
    """decompose --annihilator: the certificate search seeds the split."""
    rng, shape = cb.rng, cb.shape
    dirs = shape.sample(DIRS2, 2)
    factors = [("diff", shape.randint(1, 3)) for _ in dirs]
    sizes = shape.choice(_TORI)
    f = {(0, 0): 1}
    for v, fac in zip(dirs, factors):
        f = poly_mul(f, _factor_terms(v, fac))
    lo, hi = centered((side, side))
    cb.add("decompose-annihilator",
           [window_flag(lo, hi), "decompose", "config", "--annihilator",
            "annihilator"],
           {"config": _periodic_sum(rng, sizes, dirs, factors),
            "annihilator": poly_doc(f, 2)},
           oracle="decomposition", lo=lo, hi=hi)


def job_k2(cb, n, side):
    """decompose --k 2 with the rod tile polynomials as periodizers."""
    config, tiles = _rod_pair(cb.rng, n)
    lo, hi = centered((side, side))
    cb.add("decompose-k2",
           [window_flag(lo, hi), "decompose", "config", "--k", "2",
            "--periodizers", "p1", "p2"],
           {"config": config, "p1": _tile_poly(tiles[0]),
            "p2": _tile_poly(tiles[1])},
           oracle="decomposition", lo=lo, hi=hi)


def job_tiling_2d(cb, n, side):
    config, tiles = _rod_pair(cb.rng, n)
    lo, hi = centered((side, side))
    cb.add("tiling-decompose",
           [window_flag(lo, hi), "tiling", "decompose", "tiles", "config"],
           {"tiles": tiles, "config": config},
           oracle="decomposition", lo=lo, hi=hi)


def job_tiling_3d(cb, side):
    config, tiles = _parity_rods_3d()
    lo, hi = centered((side,) * 3)
    shift = cb.rng.randint(-3, 3)
    lo, hi = tuple(a + shift for a in lo), tuple(a + shift for a in hi)
    cb.add("tiling-decompose",
           [window_flag(lo, hi), "tiling", "decompose", "tiles", "config"],
           {"tiles": tiles, "config": config},
           oracle="decomposition", lo=lo, hi=hi)


def _random_poly(rng, dim, nterms, reach, crange=9):
    terms = {}
    while len(terms) < nterms:
        e = tuple(rng.randint(-reach, reach) for _ in range(dim))
        terms[e] = rng.choice([c for c in range(-crange, crange + 1) if c])
    return terms


def _hnf_rows(rng, diag):
    dim = len(diag)
    rows = []
    for i in range(dim):
        row = [0] * dim
        row[i] = diag[i]
        for j in range(i + 1, dim):
            row[j] = rng.randrange(diag[j])
        rows.append(tuple(row))
    return tuple(rows)


def job_act_window(cb, side, nterms):
    rng = cb.rng
    lo, hi = centered((side, side))
    values = [rng.randint(-50, 50) for _ in range(side * side)]
    cb.add("act-window", ["act", "poly", "config"],
           {"poly": poly_doc(_random_poly(rng, 2, nterms, 3), 2),
            "config": window_doc(lo, hi, values)},
           oracle="act")


def job_act_periodic(cb, diag, nterms):
    rng = cb.rng
    dim = len(diag)
    table = {r: rng.randint(-20, 20)
             for r in product(*(range(p) for p in diag))}
    cb.add("act-periodic", ["act", "poly", "config"],
           {"poly": poly_doc(_random_poly(rng, dim, nterms, 2), dim),
            "config": periodic_doc(_hnf_rows(rng, diag), table)},
           oracle="act")


def job_act_fibers(cb, nfib, nterms):
    rng = cb.rng
    fibers = {}
    dirs = rng.sample(DIRS2, 3)
    while len(fibers) < nfib:
        fibers.update(_fiber_family(rng, rng.choice(dirs),
                                    [rng.choice((1, 2, 3, 4, 5, 6, 8))], 20))
    cb.add("act-fibers", ["act", "poly", "config"],
           {"poly": poly_doc(_random_poly(rng, 2, nterms, 3), 2),
            "config": fibersum_doc(2, fibers)},
           oracle="act")


def job_tiling_verify(cb, side, n):
    """tiling verify of a rod-pair co-tiler rasterized on a binary window."""
    rng = cb.rng
    config, tiles = _rod_pair(rng, n)
    table = {tuple(r["res"]): r["val"] for r in config["values"]}
    lo, _ = centered((side, side))
    lo = tuple(a + rng.randint(-5, 5) for a in lo)
    hi = tuple(a + side - 1 for a in lo)
    values = [table[(x[0] % n, x[1] % n)] for x in box(lo, hi)]
    cb.add("tiling-verify", ["tiling", "verify", "tiles", "config"],
           {"tiles": tiles, "config": window_doc(lo, hi, values)},
           oracle="cotiler")


def _fiber_mix(rng, shape, ndirs, per_dir, periods, spread=6):
    """Fibers along ndirs directions, their annihilator and its steps.

    The annihilator is the product of X^{P w} - 1 over the directions w,
    with P the lcm of the periods along w; steps maps "w0,w1" to P.
    """
    dirs = shape.sample(DIRS2[:7], ndirs)
    fibers, factor, steps = {}, {(0, 0): 1}, {}
    for w in dirs:
        fam = _fiber_family(rng, w, [shape.choice(periods) for _ in
                                     range(shape.randint(*per_dir))], spread)
        fibers.update(fam)
        period = 1
        for vals in fam.values():
            period = lcm(period, len(vals))
        factor = poly_mul(factor, difference_terms(
            tuple(period * a for a in w)))
        steps[",".join(map(str, w))] = period
    return fibers, factor, steps


def job_sparse_full(cb, ndirs, per_dir):
    fibers, f, steps = _fiber_mix(cb.rng, cb.shape, ndirs, per_dir,
                                  (1, 2, 3, 4, 6, 8))
    cb.add("sparse-full", ["sparse", "full", "config", "annihilator"],
           {"config": fibersum_doc(2, fibers), "annihilator": poly_doc(f, 2)},
           oracle="families", steps=steps)


def job_sparseness_fibers(cb, nfib):
    # the lines set the cost of the cube scan, so they come from the slot
    per_dir = -(-nfib // 3)
    fibers, _, _ = _fiber_mix(cb.shape, cb.shape, 3, (per_dir, per_dir),
                              (1, 2, 3))
    fibers = {k: _random_vals(cb.rng, len(v), 4)
              for k, v in sorted(fibers.items())[:nfib]}
    cb.add("sparseness",
           ["sparseness", "config", "--constant", str(3 * len(fibers)),
            "--m-max", "4"],
           {"config": fibersum_doc(2, fibers)},
           oracle="sparseness")


def job_sparseness_periodic(cb, n0, n1):
    """Isolated points on a lattice: sparse at every checked cube size."""
    rng = cb.rng
    hot = (rng.randrange(n0), rng.randrange(n1))
    table = {r: (rng.randint(1, 9) if r == hot else 0)
             for r in product(range(n0), range(n1))}
    cb.add("sparseness",
           ["sparseness", "config", "--constant", "2", "--m-max", "4"],
           {"config": periodic_doc(((n0, 0), (0, n1)), table)},
           oracle="sparseness")


def job_sparseness_window(cb, side):
    fibers, _, _ = _fiber_mix(cb.shape, cb.shape, 2, (1, 2), (1, 2, 3),
                              spread=8)
    fibers = {k: _random_vals(cb.rng, len(v), 4) for k, v in fibers.items()}
    lo, hi = centered((side, side))
    cb.add("sparseness",
           ["sparseness", "config", "--constant", str(3 * len(fibers)),
            "--m-max", "4"],
           {"config": window_doc(lo, hi, _rasterize_fibers(fibers, lo, hi))},
           oracle="sparseness")


def job_sparse_fibers(cb, side):
    rng, shape = cb.rng, cb.shape
    w = shape.choice(DIRS2[:4])
    fibers = _fiber_family(rng, w, [shape.choice((1, 2, 3, 4, 6))
                                    for _ in range(shape.randint(4, 10))],
                           side // 2)
    lo, hi = centered((side, side))
    cb.add("sparse-fibers",
           ["sparse", "fibers", "config", "--direction",
            ",".join(map(str, w))],
           {"config": window_doc(lo, hi, _rasterize_fibers(fibers, lo, hi))},
           oracle="fibers", direction=list(w))


def job_sparse_exhaust(cb, nfib):
    """3-periodic zero-sum fibers along w under 1 + X^w + X^{2w}.

    The certificate X^{3w} - 1 needs the multiplier 3, so a search budget of
    2 is exhausted and exit 2 is the correct outcome.
    """
    w = cb.shape.choice(DIRS2)
    fibers = _fiber_family(cb.rng, w, [3] * nfib, 10, zero_sum3=True)
    cb.add("sparse-exhaust",
           ["--bound-search", "2", "sparse", "full", "config", "annihilator"],
           {"config": fibersum_doc(2, fibers),
            "annihilator": poly_doc(three_term(w), 2)},
           expect_exit=2, oracle="exit")


def _rasterize_fibers(fibers, lo, hi):
    by_line = {}
    for (w, a), vals in fibers.items():
        by_line.setdefault(w, {})[a] = vals
    out = []
    for x in box(lo, hi):
        total = 0
        for w, lines in by_line.items():
            anchor, t = line_point(x, w)
            vals = lines.get(anchor)
            if vals is not None:
                total += vals[t % len(vals)]
        out.append(total)
    return out


KINDS = {
    "factors-periodic": job_factors_periodic,
    "factors-fibers": job_factors_fibers,
    "annihilator": job_annihilator,
    "k2": job_k2,
    "tiling-2d": job_tiling_2d,
    "tiling-3d": job_tiling_3d,
    "act-window": job_act_window,
    "act-periodic": job_act_periodic,
    "act-fibers": job_act_fibers,
    "tiling-verify": job_tiling_verify,
    "sparse-full": job_sparse_full,
    "sparseness-fibers": job_sparseness_fibers,
    "sparseness-periodic": job_sparseness_periodic,
    "sparseness-window": job_sparseness_window,
    "sparse-fibers": job_sparse_fibers,
    "sparse-exhaust": job_sparse_exhaust,
}


def _interleave(*tiers):
    """Merge job tiers so that each is spread evenly over the pass."""
    keyed = [((i + 0.5) / len(tier), t, job)
             for t, tier in enumerate(tiers) for i, job in enumerate(tier)]
    return [job for _, _, job in sorted(keyed)]


# Each workload's pass has 34 jobs in three cost tiers of 10, 14 and 10, so
# that three passes give the 100 jobs a run needs.  With three passes,
# job_s.p50 (rank 51 of 102) falls in the middle of the middle tier and
# job_s.p90 (rank 92) in the heavy tier, and each of those ranks lands on a
# plateau of repeated slots (same shape, different values): the order
# statistic then does not sit on a step between job sizes.
SCHEDULES = {
    # nearly all time is lazy transfer-recurrence evaluation forced by
    # rasterize and verify_on_window, with coset hnf_reduce calls; almost no
    # dense window convolution
    "decompose": _interleave(
        [("tiling-2d", (2, 24)), ("tiling-2d", (3, 28)),
         ("tiling-2d", (4, 32)), ("tiling-2d", (5, 36)),
         ("tiling-2d", (3, 40)), ("k2", (2, 24)), ("k2", (5, 28)),
         ("tiling-3d", (8,)), ("tiling-3d", (9,)), ("tiling-3d", (10,))],
        [("annihilator", (40,)), ("annihilator", (44,)),
         ("factors-periodic", (2, 40, False)),
         ("factors-periodic", (2, 40, True))]
        + [("factors-fibers", (2, 40, False))] * 6
        + [("factors-periodic", (2, 48, False)),
           ("factors-periodic", (2, 52, True)),
           ("factors-fibers", (2, 44, True)), ("annihilator", (52,))],
        [("factors-periodic", (3, 40, False)),
         ("factors-periodic", (3, 40, True)), ("annihilator", (60,))]
        + [("factors-periodic", (3, 44, True))] * 5
        + [("factors-fibers", (3, 40, False)),
           ("factors-fibers", (2, 48, False))]),
    # the config layer used eagerly and in bulk, the opposite of decompose's
    # lazy point-by-point use; the only large inputs and outputs, so
    # serialize costs show here
    "convolve": _interleave(
        [("act-fibers", (10, 5)), ("act-fibers", (13, 9)),
         ("act-fibers", (16, 6)), ("act-fibers", (19, 8)),
         ("act-fibers", (22, 7)), ("act-fibers", (25, 5)),
         ("act-fibers", (28, 9)), ("act-fibers", (31, 6)),
         ("act-fibers", (34, 8)), ("act-fibers", (40, 5))],
        [("act-periodic", ((16, 16), 9)), ("act-periodic", ((8, 8, 4), 9)),
         ("act-periodic", ((16, 32), 6)), ("act-periodic", ((8, 8, 8), 7))]
        + [("act-periodic", ((32, 32), 5))] * 6
        + [("act-periodic", ((64, 32), 3)),
           ("act-periodic", ((16, 16, 8), 3)),
           ("act-periodic", ((64, 64), 3)),
           ("act-periodic", ((16, 16, 16), 3))],
        [("act-window", (150, 5)), ("act-window", (150, 9)),
         ("tiling-verify", (200, 2))]
        + [("tiling-verify", (200, 3))] * 5
        + [("act-window", (220, 7)), ("act-window", (300, 5))]),
    # the fiber cube scan and the certificate search: FiberSum builds,
    # PeriodicFiber.parameter_of -> hnf_reduce, LaurentPoly products; about
    # one job in eight exhausts its search budget (exit 2)
    "sparse": _interleave(
        [("sparse-exhaust", (12,)), ("sparse-exhaust", (14,)),
         ("sparse-exhaust", (16,)), ("sparse-exhaust", (18,)),
         ("sparse-fibers", (40,)), ("sparse-fibers", (48,)),
         ("sparse-fibers", (56,)), ("sparse-fibers", (60,)),
         ("sparse-full", (2, (3, 6))), ("sparse-full", (2, (5, 6)))],
        [("sparseness-periodic", (8, 8)), ("sparseness-periodic", (8, 12)),
         ("sparseness-periodic", (12, 12)), ("sparseness-periodic", (6, 16))]
        + [("sparse-full", (3, (4, 6)))] * 6
        + [("sparse-full", (3, (3, 6))), ("sparse-full", (3, (5, 6)))]
        + [("sparseness-fibers", (4,))] * 2,
        [("sparseness-window", (36,)), ("sparseness-window", (40,)),
         ("sparseness-fibers", (7,))]
        + [("sparseness-window", (44,))] * 5
        + [("sparseness-fibers", (8,)), ("sparseness-window", (52,))]),
}


def build(workload, seed, root, schedule=None):
    """Generate the corpus of `workload` for `seed` under `root`."""
    cb = Corpus(workload, seed, root)
    for kind, params in schedule or SCHEDULES[workload]:
        # the structure that sets a job's cost comes from the slot's
        # parameters, not from the seed or the slot's position, so repeated
        # slots are jobs of one shape with different values
        cb.shape = random.Random(f"perfbench-shape:{workload}:{kind}:"
                                 f"{params!r}")
        KINDS[kind](cb, *params)
    return cb


if __name__ == "__main__":
    # python3 corpus.py WORKLOAD SEED DIR: writes the inputs and DIR/jobs.json
    import sys
    name, seed_arg, out_dir = sys.argv[1:4]
    corpus = build(name, int(seed_arg), out_dir)
    summary = {"jobs": corpus.jobs, "digest": corpus.digest(),
               "size": corpus.size()}
    with open(os.path.join(out_dir, "jobs.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
