"""Independent output checks for benchmark jobs (stdlib only).

Nothing here imports perdec or trusts its manifest beyond reading which
files a job wrote and the annihilators or periods it claims: every claim is
re-derived from the job's input files with plain loops over exact integers.

`check(job, out_dir, exit_code)` returns a list of problems; an empty list
means the job's outcome is correct.
"""

from __future__ import annotations

import hashlib
import json
import os
from itertools import product

from corpus import box, lcm, line_point, minimal_period


def result_digest(out_dir):
    """SHA-256 over every result file a job wrote, manifest excluded."""
    h = hashlib.sha256()
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            if name == "manifest.json":
                continue
            h.update(name.encode() + b"\0")
            with open(os.path.join(out_dir, name), "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# evaluators over the documented JSON formats

def _load(path):
    with open(path, "rb") as fh:
        return json.load(fh)


def _poly(doc):
    return {tuple(t["exp"]): t["coef"] for t in doc["terms"]}


class _Config:
    """Point evaluation of a window, periodic or fiber-sum document."""

    def __init__(self, doc):
        self.kind = doc["kind"]
        self.dim = doc["dim"]
        if self.kind == "window":
            self.lo, self.hi = tuple(doc["lo"]), tuple(doc["hi"])
            self.values = dict(zip(box(self.lo, self.hi), doc["values"]))
        elif self.kind == "periodic":
            self.rows = [tuple(r) for r in doc["basis"]]
            self.values = {tuple(v["res"]): v["val"] for v in doc["values"]}
        else:
            self.lines = _fiber_lines(doc)

    def __call__(self, x):
        if self.kind == "window":
            return self.values[x]
        if self.kind == "periodic":
            return self.values[_reduce(x, self.rows)]
        return _fiber_value(self.lines, x)


def _reduce(x, rows):
    """Residue of x modulo upper-triangular rows (row i pivots at i)."""
    x = list(x)
    for i, row in enumerate(rows):
        q = x[i] // row[i]
        if q:
            x = [a - q * b for a, b in zip(x, row)]
    return tuple(x)


def _fiber_lines(doc):
    """{direction: {anchor: vals}} with fibers on one line merged."""
    lines = {}
    for f in doc["fibers"]:
        w, a = tuple(f["dir"]), tuple(f["anchor"])
        by_anchor = lines.setdefault(w, {})
        old = by_anchor.get(a)
        by_anchor[a] = (f["vals"] if old is None
                        else _add_tables(old, f["vals"]))
    return lines


def _add_tables(a, b):
    p = lcm(len(a), len(b))
    return [a[j % len(a)] + b[j % len(b)] for j in range(p)]


def _fiber_value(lines, x):
    total = 0
    for w, by_anchor in lines.items():
        anchor, t = line_point(x, w)
        vals = by_anchor.get(anchor)
        if vals is not None:
            total += vals[t % len(vals)]
    return total


def _canonical(lines):
    """Fiber lines with minimal periods and vanishing lines dropped."""
    out = {}
    for w, by_anchor in lines.items():
        for a, vals in by_anchor.items():
            vals = list(vals)
            if any(vals):
                out[(w, a)] = vals[:minimal_period(vals)]
    return out


def _convolve_at(terms, c, u):
    return sum(k * c(tuple(a - b for a, b in zip(u, e)))
               for e, k in terms.items())


def _eroded(lo, hi, terms):
    support = list(terms)
    elo = tuple(a + max(e[i] for e in support) for i, a in enumerate(lo))
    ehi = tuple(b + min(e[i] for e in support) for i, b in enumerate(hi))
    if any(a > b for a, b in zip(elo, ehi)):
        return None
    return elo, ehi


def _annihilates_on(terms, comp):
    """Whether terms * comp vanishes on the erosion of comp's window."""
    ebox = _eroded(comp.lo, comp.hi, terms)
    if ebox is None:
        return False  # nothing left to check counts as a failed check
    return all(_convolve_at(terms, comp, u) == 0 for u in box(*ebox))


def _rank(vectors):
    """Rank over the rationals by fraction-free elimination."""
    rows = [list(v) for v in vectors]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                a, b = rows[rank][col], rows[i][col]
                rows[i] = [a * y - b * x for x, y in zip(rows[rank], rows[i])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# per-command checks

def _check_act(job, out, manifest):
    terms = _poly(_load(job["inputs"]["poly"]))
    src_doc = _load(job["inputs"]["config"])
    src = _Config(src_doc)
    res = _load(os.path.join(out, "result.json"))
    if res["kind"] != src_doc["kind"]:
        return [f"result kind {res['kind']} for a {src_doc['kind']} input"]
    if res["kind"] == "window":
        ebox = _eroded(src.lo, src.hi, terms)
        if (tuple(res["lo"]), tuple(res["hi"])) != ebox:
            return [f"result box {res['lo']}..{res['hi']} is not the erosion"]
        got = _Config(res)
        bad = [u for u in box(*ebox) if got(u) != _convolve_at(terms, src, u)]
    elif res["kind"] == "periodic":
        if res["basis"] != src_doc["basis"]:
            return ["result lattice differs from the input lattice"]
        if len(res["values"]) != len(src_doc["values"]):
            return ["result does not list every residue"]
        got = _Config(res)
        bad = [r for r in got.values
               if got.values[r] != _convolve_at(terms, src, r)]
    else:
        # a shifted, scaled copy of every input fiber, merged line by line
        lines = {}
        for w, by_anchor in src.lines.items():
            for a, vals in by_anchor.items():
                for e, k in terms.items():
                    anchor, t = line_point(
                        tuple(x + y for x, y in zip(a, e)), w)
                    shifted = [k * vals[(j - t) % len(vals)]
                               for j in range(len(vals))]
                    by = lines.setdefault(w, {})
                    by[anchor] = (shifted if anchor not in by
                                  else _add_tables(by[anchor], shifted))
        want = _canonical(lines)
        have = {(tuple(f["dir"]), tuple(f["anchor"])): f["vals"]
                for f in res["fibers"]}
        bad = sorted(set(want) ^ set(have)) + sorted(
            k for k in set(want) & set(have) if want[k] != have[k])
    return [f"convolution differs at {len(bad)} points, first {bad[0]}"] \
        if bad else []


def _check_cotiler(job, out, manifest):
    tiles = _load(job["inputs"]["tiles"])
    src = _Config(_load(job["inputs"]["config"]))
    report = _load(os.path.join(out, "report.json"))
    problems = []
    for i, tile in enumerate(tiles):
        cells = [tuple(c) for c in tile["cells"]]
        lo = tuple(a - min(c[k] for c in cells) for k, a in enumerate(src.lo))
        hi = tuple(b - max(c[k] for c in cells) for k, b in enumerate(src.hi))
        holds = all(
            sum(src(tuple(x + y for x, y in zip(u, c))) for c in cells) == 1
            for u in box(lo, hi))
        entry = report.get(f"tile_{i:02d}", {})
        want = {"holds": holds, "exact": False, "region": [list(lo), list(hi)]}
        if entry != want:
            problems.append(f"tile {i}: report {entry} != {want}")
        if not holds:
            problems.append(f"tile {i}: input is not a co-tiler")
    return problems


def _check_decomposition(job, out, manifest):
    check = job["check"]
    lo, hi = tuple(check["lo"]), tuple(check["hi"])
    src = _Config(_load(job["inputs"]["config"]))
    names = sorted(n for n in manifest["outputs"]
                   if n.startswith("component_"))
    comps = [_Config(_load(os.path.join(out, n))) for n in names]
    if not comps:
        return ["no components"]
    problems = []
    for n, comp in zip(names, comps):
        if (comp.lo, comp.hi) != (lo, hi):
            problems.append(f"{n} covers {comp.lo}..{comp.hi}, not the window")
    if problems:
        return problems
    bad = [x for x in box(lo, hi) if sum(c(x) for c in comps) != src(x)]
    if bad:
        problems.append(f"components do not sum to the input at {bad[0]}")

    results = manifest["results"]
    factors = None
    if "factors" in job["inputs"]:
        factors = [_poly(d) for d in _load(job["inputs"]["factors"])]
        if len(factors) != len(comps):
            problems.append(f"{len(comps)} components for {len(factors)} "
                            "factors")
    for i, comp in enumerate(comps):
        claims = []
        ann = results.get(f"component_{i:02d}_annihilator")
        if ann is not None:
            claims.append(_poly(ann))
            if factors is not None and i < len(factors) \
                    and claims[-1] != factors[i]:
                problems.append(
                    f"component {i}: annihilator is not factor {i}")
        periods = results.get(f"component_{i:02d}_periods", [])
        for p in periods:
            claims.append({tuple(p): 1, (0,) * len(p): -1})
        if not claims:
            problems.append(
                f"component {i}: no annihilator or period recorded")
        for terms in claims:
            if not _annihilates_on(terms, comp):
                problems.append(f"component {i}: {sorted(terms.items())} "
                                "does not annihilate it on the eroded window")
        if "--k" in job["argv"] or job["kind"] == "tiling-decompose":
            k = len(_load(job["inputs"]["tiles"])) \
                if "tiles" in job["inputs"] else 2
            if not periods or _rank(periods) != k:
                problems.append(f"component {i}: periods {periods} do not "
                                f"span rank {k}")
    cert = results.get("certificate")
    if "annihilator" in job["inputs"]:
        # the searched difference product must annihilate the input
        prod = {(0,) * src.dim: 1}
        for v in cert or []:
            step = {tuple(v): 1, (0,) * len(v): -1}
            out_terms = {}
            for e1, c1 in prod.items():
                for e2, c2 in step.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out_terms[e] = out_terms.get(e, 0) + c1 * c2
            prod = {e: c for e, c in out_terms.items() if c}
        window = _Config({"kind": "window", "dim": src.dim, "lo": list(lo),
                          "hi": list(hi),
                          "values": [src(x) for x in box(lo, hi)]})
        if not cert or not _annihilates_on(prod, window):
            problems.append(
                f"certificate {cert} does not annihilate the input")
    return problems


def _check_families(job, out, manifest):
    src = _load(job["inputs"]["config"])
    want = _canonical(_fiber_lines(src))
    names = sorted(n for n in manifest["outputs"] if n.startswith("family_"))
    problems = []
    total = {}
    for n in names:
        doc = _load(os.path.join(out, n))
        dirs = {tuple(f["dir"]) for f in doc["fibers"]}
        if len(dirs) > 1:
            problems.append(f"{n} mixes directions {sorted(dirs)}")
            continue
        # each family must be annihilated by the generating factor
        # X^{P w} - 1 along its direction w: every period divides P
        for w in dirs:
            steps = job["check"]["steps"].get(",".join(map(str, w)))
            if steps is None or any(steps % f["period"]
                                    for f in doc["fibers"]):
                problems.append(f"{n}: not annihilated by the factor along "
                                f"{list(w)}")
        for w, by_anchor in _fiber_lines(doc).items():
            for a, vals in by_anchor.items():
                tw = total.setdefault(w, {})
                tw[a] = vals if a not in tw else _add_tables(tw[a], vals)
    if _canonical(total) != want:
        problems.append("families do not sum to the input")
    return problems


def _check_sparseness(job, out, manifest):
    argv = job["argv"]
    a = int(argv[argv.index("--constant") + 1])
    m_max = int(argv[argv.index("--m-max") + 1])
    doc = _load(job["inputs"]["config"])
    want = sparseness_certificate(doc, a, m_max)
    got = _load(os.path.join(out, "certificate.json"))
    problems = [] if got == want else [f"certificate {got} != {want}"]
    if not want["checked"] or want["violation"] is not None:
        problems.append("input is not sparse at the checked sizes")
    return problems


def sparseness_certificate(doc, a, m_max):
    """The documented certificate, from support counts by prefix sums."""
    c = _Config(doc)
    dim = doc["dim"]
    checked, violation, exact = [], None, False
    if doc["kind"] == "fibersum":
        fibers = doc["fibers"]
        reach = min(max((max(map(abs, f["anchor"])) + f["period"]
                         for f in fibers), default=0), 8)
        counts = _cube_counter(c, dim, reach + 2 * m_max)
        for m in range(1, m_max + 1):
            r = reach + m
            best = 0
            for t in box((-r,) * dim, (r,) * dim):
                n = counts(t, m)
                if n > best:
                    best = n
                    if n > a * m and violation is None:
                        violation = [m, list(t)]
            checked.append([m, best])
        exact = violation is None and a >= 3 * len(fibers)
    elif doc["kind"] == "periodic":
        diag = [c.rows[i][i] for i in range(dim)]
        if not any(c.values.values()):
            return {"constant": a, "exact": True, "checked": [[1, 0]],
                    "violation": None}
        counts = _cube_counter(c, dim, max(diag) + m_max)
        exact = False
        for m in range(1, m_max + 1):
            best = 0
            for t in product(*(range(p) for p in diag)):
                n = counts(t, m)
                best = max(best, n)
                if n > a * m:
                    checked.append([m, n])
                    return {"constant": a, "exact": True, "checked": checked,
                            "violation": [m, list(t)]}
            checked.append([m, best])
    else:
        counts = _cube_counter(c, dim, None)
        for m in range(1, m_max + 1):
            tlo = tuple(v + m for v in c.lo)
            thi = tuple(v - m for v in c.hi)
            if any(x > y for x, y in zip(tlo, thi)):
                break
            best = 0
            for t in box(tlo, thi):
                n = counts(t, m)
                best = max(best, n)
                if n > a * m:
                    checked.append([m, n])
                    return {"constant": a, "exact": False,
                            "checked": checked, "violation": [m, list(t)]}
            checked.append([m, best])
    return {"constant": a, "exact": exact, "checked": checked,
            "violation": violation}


def _cube_counter(c, dim, radius):
    """counts(t, m): support points of c in the cube t + [-m, m]^d (2-d)."""
    if dim != 2:
        raise ValueError("the sparseness oracle covers 2-d inputs")
    if radius is None:
        lo, hi = c.lo, c.hi
    else:
        lo, hi = (-radius,) * 2, (radius,) * 2
    w0, w1 = hi[0] - lo[0] + 1, hi[1] - lo[1] + 1
    pre = [[0] * (w1 + 1) for _ in range(w0 + 1)]
    for i in range(w0):
        row, prev = pre[i + 1], pre[i]
        for j in range(w1):
            hit = c((lo[0] + i, lo[1] + j)) != 0
            row[j + 1] = row[j] + prev[j + 1] - prev[j] + hit

    def counts(t, m):
        i0, i1 = t[0] - m - lo[0], t[0] + m - lo[0] + 1
        j0, j1 = t[1] - m - lo[1], t[1] + m - lo[1] + 1
        if i0 < 0 or j0 < 0 or i1 > w0 or j1 > w1:
            raise ValueError("cube leaves the counted region")
        return pre[i1][j1] - pre[i0][j1] - pre[i1][j0] + pre[i0][j0]
    return counts


def _check_fibers(job, out, manifest):
    src = _Config(_load(job["inputs"]["config"]))
    doc = _load(os.path.join(out, "fibers.json"))
    w = tuple(job["check"]["direction"])
    if any(tuple(f["dir"]) != w for f in doc["fibers"]):
        return [f"extracted fibers leave the direction {list(w)}"]
    got = _Config(doc)
    bad = [x for x in box(src.lo, src.hi) if got(x) != src(x)]
    return [f"fibers differ from the window at {bad[0]}"] if bad else []


_CHECKS = {"act": _check_act, "cotiler": _check_cotiler,
           "decomposition": _check_decomposition,
           "families": _check_families, "sparseness": _check_sparseness,
           "fibers": _check_fibers}


def check(job, out_dir, exit_code, full=True):
    """Problems with one execution of `job`; empty when it is correct.

    With full=False only the exit code and the manifest verdicts are read;
    callers compare such repeats to a fully checked run by result digest.
    """
    if exit_code != job["expect_exit"]:
        return [f"exit code {exit_code}, expected {job['expect_exit']}"]
    if job["check"]["oracle"] == "exit":
        # inconclusive runs write no manifest; the exit code is the outcome
        return []
    try:
        manifest = _load(os.path.join(out_dir, "manifest.json"))
        false = [k for k, v in manifest["verdicts"].items() if v is not True]
        if false:
            return [f"manifest verdicts not true: {false}"]
        if not full:
            return []
        return _CHECKS[job["check"]["oracle"]](job, out_dir, manifest)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
