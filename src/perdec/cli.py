"""Batch command-line surface.

Every run reads JSON inputs, writes JSON results plus exactly one
manifest.json into the output directory, and exits 0 when all recorded
verifications passed, 2 when a bounded search was exhausted, and 1 on any
other failure, naming the error (with the bound that ended a search) in
its manifest; only a run that cannot create that directory exits 1 with
none.  Identical inputs and parameters produce byte-identical result
files; the manifest additionally records the wall time.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from .config import (FiberSum, WindowConfig, add_views, apply_poly,
                     rasterize)
from .decompose import (Bounds, decompose_product, k_periodic_decompose,
                        search_difference_annihilator)
from .errors import InconclusiveError, PerdecError
from .laurent import line_direction
from .lattice import SubspaceBasis
from .serialize import (config_from_obj, config_to_obj, dumps, load_json,
                        poly_from_obj, poly_to_obj, tile_from_obj)
from .sparse import (_agree_on, check_sparseness, fiber_closed_form_constant,
                     fiber_extract, sparse_decompose, sparse_full,
                     sparse_split2)
from .tiling import cotiler_decompose, independent, verify_cotiler


class _Parser(argparse.ArgumentParser):
    # usage problems are plain errors (exit 1); 2 is reserved for inconclusive
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


class RunContext:
    """Collects inputs, outputs and verdicts; emits the manifest."""

    def __init__(self, args):
        self.args = args
        # `main` builds `bounds` from these, so that a bad bound is reported
        self.given_bounds = dict(vars(Bounds()), search=args.bound_search,
                                 period=args.bound_period, k_max=args.kmax,
                                 patience=args.patience)
        self.bounds = None
        self.out_dir = args.out
        os.makedirs(self.out_dir, exist_ok=True)
        self.t0 = time.monotonic()
        self.inputs = {}
        self.outputs = []
        self.verdicts = {}
        self.results = {}

    def _load(self, path):
        """The parsed input file; its hash goes into the manifest."""
        obj, self.inputs[path] = load_json(path)
        return obj

    def load_config(self, path):
        return self._check_dim(path, config_from_obj(self._load(path)))

    def _check_dim(self, path, value):
        if self.args.dim is not None and value.dim != self.args.dim:
            raise PerdecError(
                f"{path}: dimension {value.dim} does not match "
                f"--dim {self.args.dim}")
        return value

    def load_poly(self, path):
        return self._check_dim(path, poly_from_obj(self._load(path)))

    def load_poly_list(self, path):
        obj = self._load(path)
        items = [obj] if isinstance(obj, dict) else obj
        return [self._check_dim(path, poly_from_obj(item)) for item in items]

    def load_tiles(self, path):
        obj = self._load(path)
        items = [obj] if isinstance(obj, dict) else obj
        return [self._check_dim(path, tile_from_obj(item)) for item in items]

    def write_json(self, name, obj):
        path = os.path.join(self.out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps(obj))
        self.outputs.append(name)
        return path

    def write_config(self, name, c):
        path = self.write_json(name, config_to_obj(c))
        if self.args.format == "grid" and isinstance(c, WindowConfig) \
                and c.dim == 2:
            gname = name.rsplit(".", 1)[0] + ".txt"
            gpath = os.path.join(self.out_dir, gname)
            with open(gpath, "w", encoding="utf-8") as fh:
                fh.write(c.grid_text() + "\n")
            self.outputs.append(gname)
        return path

    def window(self, dim):
        if self.args.window is None:
            r = 10
            return (-r,) * dim, (r,) * dim
        return _parse_window(self.args.window, dim)

    def finish(self, command, error=None):
        """Write the manifest, with `error` on a failed run; the exit code
        of the verdicts."""
        manifest = {
            "command": command,
            "inputs": self.inputs,
            "bounds": self.given_bounds,
            "verdicts": self.verdicts,
            "results": self.results,
            "outputs": sorted(self.outputs),
            "wall_time_s": round(time.monotonic() - self.t0, 6),
            **({} if error is None else {"error": error}),
        }
        with open(os.path.join(self.out_dir, "manifest.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(dumps(manifest))
        return 0 if all(self.verdicts.values()) else 1


def _parse_window(spec, dim):
    parts = spec.split(",")
    if len(parts) != dim:
        raise PerdecError(
            f"--window needs {dim} comma-separated ranges, got {spec!r}")
    lo, hi = [], []
    for part in parts:
        a, sep, b = part.partition("..")
        if not sep:
            raise PerdecError(f"bad range {part!r}; expected lo..hi")
        try:
            lo.append(int(a))
            hi.append(int(b))
        except ValueError as exc:
            raise PerdecError(f"bad range {part!r}") from exc
        if lo[-1] > hi[-1]:
            raise PerdecError(f"empty range {part!r}; expected lo <= hi")
    return tuple(lo), tuple(hi)


def _parse_direction(spec, dim):
    try:
        v = tuple(int(x) for x in spec.split(","))
    except ValueError:
        v = ()
    if len(v) != dim:
        raise PerdecError(
            f"--direction needs {dim} comma-separated integers, got {spec!r}")
    return v


def _positional(command, paths, names):
    """`paths`, one per entry of `names`; a missing or an extra file is an
    error that names it."""
    if len(paths) < len(names):
        raise PerdecError(f"{command}: missing the {names[len(paths)]} file")
    if len(paths) > len(names):
        raise PerdecError(f"{command}: unexpected file {paths[len(names)]!r}")
    return paths


# the positional files after CONFIG of each sparse subcommand
_SPARSE_FILES = {"fibers": (), "split": ("phi polynomial", "psi polynomial"),
                 "decompose": ("polynomial list",), "full": ("annihilator",)}


# ---------------------------------------------------------------------------
# commands

def _cmd_poly(ctx):
    args = ctx.args
    paths = _positional(f"poly {args.op}", args.inputs,
                        ("polynomial",) if args.op == "line-dir"
                        else ("first polynomial", "second polynomial"))
    if args.op == "line-dir":
        f = ctx.load_poly(paths[0])
        desc = line_direction(f)
        if desc is None:
            ctx.results["line"] = "absent"
        else:
            ctx.results["line"] = {"direction": list(desc.direction),
                                   "anchor": list(desc.anchor)}
        ctx.write_json("line-dir.json", ctx.results["line"])
        return
    f, g = map(ctx.load_poly, paths)
    result = f + g if args.op == "add" else f * g
    ctx.write_json("result.json", poly_to_obj(result))


def _cmd_act(ctx):
    args = ctx.args
    f = ctx.load_poly(args.poly)
    c = ctx.load_config(args.config)
    out = apply_poly(f, c)
    ctx.write_config("result.json", out)
    if isinstance(out, WindowConfig):
        ctx.results["eroded"] = {"lo": list(out.lo), "hi": list(out.hi)}


def _cmd_decompose(ctx):
    args = ctx.args
    # --periodizers belongs to --k; without it, it is a mode of its own
    given = [flag for flag, value in (
        ("--k", args.k), ("--factors", args.factors),
        ("--annihilator", args.annihilator),
        ("--periodizers", None if args.k is not None else args.periodizers))
        if value is not None]
    if len(given) > 1:
        raise PerdecError(f"decompose takes one of --factors, --annihilator "
                          f"or --k/--periodizers, not {' and '.join(given)}")
    c = ctx.load_config(args.config)
    bounds = ctx.bounds
    lo, hi = ctx.window(c.dim)

    if args.k is not None:
        if not args.periodizers:
            raise PerdecError("--k needs --periodizers FILE [FILE ...]")
        family = []
        for path in args.periodizers:
            family.extend(ctx.load_poly_list(path))
        dec = k_periodic_decompose(c, args.k, family, bounds)
    elif args.factors:
        phis = ctx.load_poly_list(args.factors)
        dec = decompose_product(phis, c, SubspaceBasis.trivial(c.dim), bounds)
    elif args.annihilator:
        f = ctx.load_poly(args.annihilator)
        dp = search_difference_annihilator(c, f, bounds.search)
        ctx.results["certificate"] = [list(v) for v in dp.vectors]
        dec = decompose_product(dp.polys(), c, SubspaceBasis.trivial(c.dim),
                                bounds)
    else:
        raise PerdecError(
            "decompose needs --factors, --annihilator or --k/--periodizers")
    _write_decomposition(ctx, dec, lo, hi)


def _write_decomposition(ctx, dec, lo, hi):
    """Verify on the window, write each component and record its witnesses."""
    report = dec.verify_on_window(lo, hi)
    ctx.verdicts["sum_matches"] = report["sum"]
    for i, ok in enumerate(report["annihilation"]):
        ctx.verdicts[f"component_{i:02d}_annihilated"] = ok
    for i, comp in enumerate(dec.components):
        ctx.write_config(f"component_{i:02d}.json",
                         rasterize(comp.view, lo, hi))
        ctx.results[f"component_{i:02d}_annihilator"] = \
            poly_to_obj(comp.line_poly)
        if comp.gauge is not None:
            ctx.results[f"component_{i:02d}_gauge"] = comp.gauge
        if comp.periods:
            ctx.results[f"component_{i:02d}_periods"] = \
                [list(p) for p in comp.periods]
    ctx.results["window"] = {"lo": list(lo), "hi": list(hi)}


def _cmd_sparse(ctx):
    """`sparse split C PHI PSI` is `sparse decompose C [PHI, PSI]` read from
    two files: one path, the same family files and identities."""
    args, bounds = ctx.args, ctx.bounds
    polys = _positional(f"sparse {args.subcommand}", args.polys,
                        _SPARSE_FILES[args.subcommand])
    c = ctx.load_config(args.config)

    if args.subcommand == "fibers":
        if not args.direction:
            raise PerdecError("sparse fibers needs --direction")
        window = ctx.window(c.dim)
        out = fiber_extract(c, _parse_direction(args.direction, c.dim),
                            bounds.period)
        ctx.write_config("fibers.json", out)
        consistent = out == c if isinstance(c, FiberSum) \
            else _agree_on(out, c, window)
        ctx.verdicts["extraction_consistent"] = consistent
        return

    if args.subcommand == "split":
        fams = sparse_split2(c, *map(ctx.load_poly, polys), bounds)
    elif args.subcommand == "decompose":
        fams = sparse_decompose(c, ctx.load_poly_list(polys[0]), bounds)
    else:  # "full", the last choice argparse allows
        fams = sparse_full(c, ctx.load_poly(polys[0]), bounds)
    _sparse_report(ctx, c, fams, args.subcommand == "full")


def _sparse_report(ctx, source, families, certified):
    """Record the families, their detected periods and the identities:
    per-family annihilation, checked exactly, and the family sum, exact on
    fiber sums, else evaluated on the check window cut to the input's box;
    first, where `certified`, that the certificate annihilates the input."""
    for i, fam in enumerate(families):
        ctx.write_config(f"family_{i:02d}.json", fam)
        ctx.results[f"family_{i:02d}_periods"] = \
            [{"anchor": list(f.anchor), "dir": list(f.direction),
              "period": f.period} for f in fam.fibers]
    verdicts = dict.fromkeys(
        ["certificate annihilates"] * certified
        + ["per-family annihilation", "family sum = input"], True)
    if isinstance(source, FiberSum):
        ctx.results["sparseness_constant"] = \
            max(fiber_closed_form_constant(source), 1)
    elif families:
        verdicts["family sum = input"] = _agree_on(
            add_views(families), source, ctx.bounds.check_window(source.dim))
    for name, holds in verdicts.items():
        ctx.verdicts[f"identity: {name}"] = holds


def _cmd_sparseness(ctx):
    args = ctx.args
    c = ctx.load_config(args.config)
    report = check_sparseness(c, args.constant, args.m_max)
    ctx.verdicts["sparse"] = report.ok
    ctx.results["certificate"] = {
        "constant": report.constant,
        "exact": report.exact,
        "checked": [list(pair) for pair in report.checked],
        "violation": (None if report.violation is None
                      else {"m": report.violation[0],
                            "t": list(report.violation[1])}),
    }
    ctx.write_json("certificate.json", ctx.results["certificate"])


def _cmd_tiling(ctx):
    args = ctx.args
    _positional(f"tiling {args.subcommand}",
                [] if args.config is None else [args.config],
                () if args.subcommand == "independent" else ("configuration",))

    if args.subcommand == "independent":
        tiles = ctx.load_tiles(args.tiles)
        ok, witness = independent(tiles)
        ctx.verdicts["independent"] = ok
        ctx.results["witness"] = (None if witness is None
                                  else [list(v) for v in witness])
        ctx.write_json("report.json",
                       {"independent": ok, "witness": ctx.results["witness"]})
        return

    if args.subcommand == "verify":
        tiles = ctx.load_tiles(args.tiles)
        c = ctx.load_config(args.config)
        report = {}
        for i, tile in enumerate(tiles):
            verdict = verify_cotiler(tile, c)
            ctx.verdicts[f"cotiler_{i:02d}"] = verdict.holds
            report[f"tile_{i:02d}"] = {
                "holds": verdict.holds, "exact": verdict.exact,
                "region": (None if verdict.region is None
                           else [list(verdict.region[0]),
                                 list(verdict.region[1])])}
        ctx.write_json("report.json", report)
        return

    # "decompose", the last choice argparse allows
    tiles = ctx.load_tiles(args.tiles)
    c = ctx.load_config(args.config)
    lo, hi = ctx.window(c.dim)
    _write_decomposition(ctx, cotiler_decompose(tiles, c, ctx.bounds), lo, hi)


# ---------------------------------------------------------------------------
# parser

def build_parser():
    parser = _Parser(prog="perdec",
                     description="exact periodic-decomposition toolkit")
    parser.add_argument("--out", default="perdec-out",
                        help="output directory (default: perdec-out)")
    parser.add_argument("--dim", type=int, default=None,
                        help="assert the dimension of every input")
    defaults = Bounds()
    parser.add_argument("--bound-search", type=int, default=defaults.search,
                        help="certificate search budget (default %(default)s)")
    parser.add_argument("--bound-period", type=int, default=defaults.period,
                        help="largest period probed (default %(default)s)")
    parser.add_argument("--kmax", type=int, default=defaults.k_max,
                        help="translate sequence length bound "
                             "(default %(default)s)")
    parser.add_argument("--patience", type=int, default=defaults.patience,
                        help="stabilization patience (default %(default)s)")
    parser.add_argument("--window", default=None,
                        help="evaluation box; use the = form for negative "
                             "corners, e.g. --window=-20..20,-20..20")
    parser.add_argument("--format", choices=("json", "grid"), default="json",
                        help="grid adds text dumps for window outputs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="polynomial arithmetic")
    p.add_argument("op", choices=("add", "mul", "line-dir"))
    p.add_argument("inputs", nargs="+")
    p.set_defaults(handler=_cmd_poly)

    p = sub.add_parser("act", help="apply a polynomial to a configuration")
    p.add_argument("poly")
    p.add_argument("config")
    p.set_defaults(handler=_cmd_act)

    p = sub.add_parser("decompose", help="periodic decomposition")
    p.add_argument("config")
    p.add_argument("--factors", help="JSON list of line-polynomial factors")
    p.add_argument("--annihilator",
                   help="single annihilator; a difference product is searched")
    p.add_argument("--k", type=int, default=None,
                   help="target periodicity level (needs --periodizers)")
    p.add_argument("--periodizers", nargs="+", default=None,
                   help="periodizer family files")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("sparse", help="sparse fiber decompositions")
    p.add_argument("subcommand",
                   choices=("fibers", "split", "decompose", "full"))
    p.add_argument("config")
    p.add_argument("polys", nargs="*")
    p.add_argument("--direction", default=None,
                   help="fiber direction for 'fibers', e.g. '1,0'")
    p.set_defaults(handler=_cmd_sparse)

    p = sub.add_parser("sparseness", help="sparseness certificate")
    p.add_argument("config")
    p.add_argument("--constant", type=int, required=True)
    p.add_argument("--m-max", type=int, default=6)
    p.set_defaults(handler=_cmd_sparseness)

    p = sub.add_parser("tiling", help="translational tilings")
    p.add_argument("subcommand", choices=("verify", "independent", "decompose"))
    p.add_argument("tiles", help="tile file (JSON object or list)")
    p.add_argument("config", nargs="?", default=None)
    p.set_defaults(handler=_cmd_tiling)

    return parser


# the parser holds no state between parse_args calls, so one serves every
# main call of the process; build_parser still returns a fresh one
_shared_parser = functools.cache(build_parser)


def main(argv=None):
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        ctx = RunContext(args)
    except OSError as exc:  # so no manifest can be written there
        print(f"perdec: error: cannot create output directory {args.out}: "
              f"{exc.strerror}", file=sys.stderr)
        return 1
    error = None
    try:
        ctx.bounds = Bounds(**ctx.given_bounds)
        args.handler(ctx)
    except PerdecError as exc:
        inconclusive = isinstance(exc, InconclusiveError)
        print(f"perdec: {'inconclusive' if inconclusive else 'error'}: {exc}",
              file=sys.stderr)
        error = {"type": type(exc).__name__, "message": str(exc),
                 "bound": getattr(exc, "bound", None)}
    code = ctx.finish(_command(args), error)
    return code if error is None else 2 if inconclusive else 1


def _command(args):
    """The manifest's `command`: the command, then its positional arguments
    as parsed, in the order it takes them (sub-command or op, files)."""
    words = [args.command]
    for name in ("op", "subcommand", "poly", "tiles", "config", "inputs",
                 "polys"):
        value = getattr(args, name, None)
        words += value if isinstance(value, list) else [value] * bool(value)
    return words


if __name__ == "__main__":
    sys.exit(main())
