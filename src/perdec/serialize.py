"""JSON schemas for polynomials, configurations and tiles.

Parsers enforce the type invariants bit-exactly: no zero coefficients or
duplicate exponents in polynomials, canonical residue keys for periodic
values, primitive directions and canonical anchors for fibers, distinct
cells for tiles.  Residue keys exist only here: a periodic configuration
keeps a flat table over its residue box, written record by record in box
order and read from records in any order.  Large value lists are
type-checked in bulk; when a bulk check fails, the per-item checks run and
name the first bad item.

`dumps` writes the one output encoding itself: sorted keys, a 2-space
indent, one scalar per line, a trailing newline and ASCII escapes, the
bytes of `json.dumps(obj, sort_keys=True, indent=2) + "\n"`.  Identical
values produce identical bytes.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .config import (FiberSum, PeriodicConfig, PeriodicFiber, WindowConfig,
                     _minimal_period, box_points, box_size)
from .errors import SchemaError
from .laurent import LaurentPoly
from .tiling import Tile

_INT = {int}


def _all_int(xs):
    """Whether every item has type exactly int (bools do not count)."""
    return set(map(type, xs)) <= _INT


def dumps(obj) -> str:
    """obj in the output encoding; every dict key must be a string."""
    return _encode(obj, "\n") + "\n"


def _encode(o, nl):
    """o as indented JSON; `nl` is the newline and indent of o's own line."""
    if type(o) is int:
        return str(o)
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if isinstance(o, (list, tuple)):
        return _array(o, nl)
    if isinstance(o, dict):
        return _object(o, nl)
    return json.dumps(o)  # float, bool, None, int subclasses; TypeError else


def _array(xs, nl):
    if not xs:
        return "[]"
    inner = nl + "  "
    sep = "," + inner
    if _all_int(xs):  # "%d" formats faster than str() calls
        body = sep.join(["%d"] * len(xs)) % tuple(xs)
    else:
        body = _records(xs, inner)
        if body is None:
            body = sep.join([_encode(x, inner) for x in xs])
    return "[" + inner + body + nl + "]"


def _object(d, nl):
    if not d:
        return "{}"
    inner = nl + "  "
    return ("{" + inner
            + ("," + inner).join([encode_basestring_ascii(k) + ": "
                                  + _encode(v, inner)
                                  for k, v in sorted(d.items())])
            + nl + "}")


def _records(xs, nl):
    """Dicts with one key set and int or fixed-length int-list values, from
    one %-template; None when the items are not records of that shape."""
    if set(map(type, xs)) != {dict}:
        return None
    keysets = set(map(frozenset, xs))
    keys = sorted(keysets.pop()) if len(keysets) == 1 else ()
    if not keys:
        return None
    knl = nl + "  "
    vnl = knl + "  "
    fields, columns = [], []
    for k in keys:
        col = list(map(itemgetter(k), xs))
        head = encode_basestring_ascii(k).replace("%", "%%") + ": "
        if _all_int(col):
            fields.append(head + "%d")
            columns.append(col)
            continue
        lengths = set(map(len, col)) if set(map(type, col)) == {list} else ()
        if len(lengths) != 1 or not _all_int(chain.from_iterable(col)):
            return None
        n = lengths.pop()
        fields.append(head + ("[" + vnl + ("," + vnl).join(["%d"] * n) + knl
                              + "]" if n else "[]"))
        columns.extend(zip(*col))
    template = "{" + knl + ("," + knl).join(fields) + nl + "}"
    rows = zip(*columns) if columns else [()] * len(xs)
    return ("," + nl).join(map(template.__mod__, rows))


def _int(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return value


def _int_vector(value, dim, what):
    if not isinstance(value, list) or len(value) != dim:
        raise SchemaError(f"{what} must be a list of {dim} integers")
    return tuple(_int(x, what) for x in value)


def _dim_of(obj):
    dim = obj.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SchemaError("missing or invalid 'dim'")
    return dim


# ---------------------------------------------------------------------------
# polynomials

def poly_to_obj(f: LaurentPoly):
    return {"dim": f.dim,
            "terms": [{"exp": list(e), "coef": c} for e, c in f.terms()]}


def poly_from_obj(obj) -> LaurentPoly:
    if not isinstance(obj, dict):
        raise SchemaError("polynomial document must be an object")
    dim = _dim_of(obj)
    terms = obj.get("terms")
    if not isinstance(terms, list):
        raise SchemaError("polynomial needs a 'terms' list")
    seen = {}
    for item in terms:
        if not isinstance(item, dict) or set(item) != {"exp", "coef"}:
            raise SchemaError("each term needs exactly 'exp' and 'coef'")
        exp = _int_vector(item["exp"], dim, "exponent")
        coef = _int(item["coef"], "coefficient")
        if coef == 0:
            raise SchemaError(f"zero coefficient at exponent {list(exp)}")
        if exp in seen:
            raise SchemaError(f"duplicate exponent {list(exp)}")
        seen[exp] = coef
    return LaurentPoly(dim, seen)


# ---------------------------------------------------------------------------
# configurations

def config_to_obj(c):
    if isinstance(c, WindowConfig):
        return {"kind": "window", "dim": c.dim, "lo": list(c.lo),
                "hi": list(c.hi), "values": list(c.values)}
    if isinstance(c, PeriodicConfig):
        return {"kind": "periodic", "dim": c.dim,
                "basis": [list(g) for g in c.basis],
                "values": [{"res": list(r), "val": v} for r, v in
                           zip(box_points(*c.residue_box), c.values)]}
    if isinstance(c, FiberSum):
        return {"kind": "fibersum", "dim": c.dim,
                "fibers": [{"anchor": list(f.anchor), "dir": list(f.direction),
                            "period": f.period, "vals": list(f.vals)}
                           for f in c.fibers]}
    raise SchemaError(f"cannot serialize configuration of type {type(c)!r}")


def config_from_obj(obj):
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
        if not _all_int(values):
            values = [_int(v, "value") for v in values]
        return WindowConfig(lo, hi, values)
    if kind == "periodic":
        basis = obj.get("basis")
        if not isinstance(basis, list) or len(basis) != dim:
            raise SchemaError("periodic basis must list dim generators")
        gens = [_int_vector(g, dim, "generator") for g in basis]
        raw = obj.get("values")
        if not isinstance(raw, list):
            raise SchemaError("periodic needs a 'values' list")
        values = _residue_values(raw, dim)
        if values is None:
            values = {}
            for item in raw:
                if not isinstance(item, dict) or set(item) != {"res", "val"}:
                    raise SchemaError(
                        "each value needs exactly 'res' and 'val'")
                res = _int_vector(item["res"], dim, "residue")
                if res in values:
                    raise SchemaError(f"duplicate residue {list(res)}")
                values[res] = _int(item["val"], "value")
        try:
            # the table in box order; a missing residue stops the read
            cfg = PeriodicConfig.from_function(dim, gens, values.pop)
        except KeyError:
            cfg = None
        except Exception as exc:
            raise SchemaError(f"invalid periodic configuration: {exc}") from exc
        if cfg is None or values:
            raise SchemaError(
                "invalid periodic configuration: periodic values must be "
                "keyed by exactly the canonical residues")
        return cfg
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
            if not _all_int(vals):
                vals = [_int(v, "fiber value") for v in vals]
            try:
                fiber = PeriodicFiber(anchor, direction,
                                      vals[:_minimal_period(vals)])
            except Exception as exc:
                raise SchemaError(f"invalid fiber: {exc}") from exc
            fibers.append(fiber)
        return FiberSum(dim, fibers)
    raise SchemaError(f"unknown configuration kind {kind!r}")


_RES_VAL = frozenset(("res", "val"))


def _residue_values(raw, dim):
    """{res: val} from well-formed records without duplicate residues, checked
    in bulk; None when any record fails, so the per-item loop names it."""
    if set(map(type, raw)) - {dict} or set(map(frozenset, raw)) - {_RES_VAL}:
        return None
    res = list(map(itemgetter("res"), raw))
    vals = list(map(itemgetter("val"), raw))
    if (set(map(type, res)) - {list} or set(map(len, res)) - {dim}
            or not _all_int(chain.from_iterable(res)) or not _all_int(vals)):
        return None
    values = dict(zip(map(tuple, res), vals))
    return values if len(values) == len(raw) else None


# ---------------------------------------------------------------------------
# tiles

def tile_from_obj(obj) -> Tile:
    if not isinstance(obj, dict):
        raise SchemaError("tile document must be an object")
    dim = _dim_of(obj)
    cells = obj.get("cells")
    if not isinstance(cells, list) or not cells:
        raise SchemaError("tile needs a nonempty 'cells' list")
    try:
        return Tile(dim, [_int_vector(c, dim, "cell") for c in cells])
    except Exception as exc:
        raise SchemaError(f"invalid tile: {exc}") from exc


# ---------------------------------------------------------------------------
# file helpers

def load_json(path):
    """(parsed JSON, SHA-256 hex digest of the bytes) of the file at path."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
    return obj, hashlib.sha256(data).hexdigest()
