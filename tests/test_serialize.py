import copy
import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from perdec.config import (FiberSum, PeriodicConfig, WindowConfig, make_fiber)
from perdec.errors import SchemaError
from perdec.laurent import difference_poly
from perdec.serialize import (config_from_obj, config_to_obj, dumps,
                              poly_from_obj, poly_to_obj, tile_from_obj)
from perdec.tiling import Tile

from helpers import (random_fiber_family, random_periodic, random_poly,
                     reference_config_from_obj)


def test_poly_roundtrip():
    rng = random.Random(2)
    for _ in range(40):
        f = random_poly(rng, rng.choice((1, 2, 3)))
        assert poly_from_obj(poly_to_obj(f)) == f


def test_poly_rejections():
    with pytest.raises(SchemaError):
        poly_from_obj({"dim": 2, "terms": [{"exp": [0, 0], "coef": 0}]})
    with pytest.raises(SchemaError):
        poly_from_obj({"dim": 2, "terms": [{"exp": [1, 0], "coef": 1},
                                           {"exp": [1, 0], "coef": 2}]})
    with pytest.raises(SchemaError):
        poly_from_obj({"dim": 2, "terms": [{"exp": [1], "coef": 1}]})
    with pytest.raises(SchemaError):
        poly_from_obj({"dim": 2, "terms": [{"exp": [1, 0], "coef": 1.5}]})
    with pytest.raises(SchemaError):
        poly_from_obj({"terms": []})


def test_window_roundtrip_and_rejections():
    w = WindowConfig((-1, 0), (1, 2), list(range(9)))
    assert config_from_obj(config_to_obj(w)) == w
    with pytest.raises(SchemaError):
        config_from_obj({"kind": "window", "dim": 2, "lo": [0, 0],
                         "hi": [1, 1], "values": [1, 2, 3]})
    with pytest.raises(SchemaError):
        config_from_obj({"kind": "window", "dim": 2, "lo": [2, 0],
                         "hi": [1, 1], "values": []})


def test_periodic_roundtrip_and_rejections():
    rng = random.Random(3)
    for _ in range(20):
        c = random_periodic(rng, 2, 24)
        assert config_from_obj(config_to_obj(c)) == c
    good = config_to_obj(random_periodic(rng, 2, 8))
    bad = dict(good)
    bad["values"] = good["values"][:-1]  # missing residue
    with pytest.raises(SchemaError):
        config_from_obj(bad)
    bad = dict(good)
    bad["values"] = good["values"] + [good["values"][0]]  # duplicate residue
    with pytest.raises(SchemaError):
        config_from_obj(bad)
    with pytest.raises(SchemaError):
        config_from_obj({"kind": "periodic", "dim": 2,
                         "basis": [[2, 0], [4, 0]],  # singular
                         "values": []})
    # non-canonical residue key
    with pytest.raises(SchemaError):
        config_from_obj({"kind": "periodic", "dim": 2,
                         "basis": [[2, 0], [0, 1]],
                         "values": [{"res": [0, 0], "val": 1},
                                    {"res": [2, 0], "val": 2}]})


def _periodic_doc(values):
    return {"kind": "periodic", "dim": 2, "basis": [[4000, 0], [0, 4000]],
            "values": values}


def test_periodic_rejects_huge_lattice_with_few_values_quickly():
    doc = _periodic_doc([{"res": [0, 0], "val": 1}])
    assert len(json.dumps(doc, separators=(",", ":"))) <= 90
    t0 = time.monotonic()
    with pytest.raises(SchemaError):
        config_from_obj(doc)
    assert time.monotonic() - t0 < 1.0


def test_periodic_rejects_wrong_or_missing_key():
    good = {"kind": "periodic", "dim": 2, "basis": [[3, 1], [0, 2]],
            "values": [{"res": [a, b], "val": a + b}
                       for a in range(3) for b in range(2)]}
    assert config_from_obj(good).value_at((2, 1)) == 3
    for res in ([3, 0], [0, 2], [-1, 0], [0, -1]):  # outside 0 <= k_i < d_i
        bad = dict(good)
        bad["values"] = good["values"][1:] + [{"res": res, "val": 7}]
        with pytest.raises(SchemaError):
            config_from_obj(bad)
    bad = dict(good)
    bad["values"] = good["values"][:3] + good["values"][4:]  # missing (1, 1)
    with pytest.raises(SchemaError):
        config_from_obj(bad)
    bad = dict(good)
    bad["values"] = good["values"] + [{"res": [3, 0], "val": 7}]  # extra
    with pytest.raises(SchemaError):
        config_from_obj(bad)


_NOT_CANONICAL = ("invalid periodic configuration: periodic values must be "
                  "keyed by exactly the canonical residues")


def test_periodic_records_in_any_order_and_wrong_keys():
    # records may come in any order; they are written in residue-box order
    rng = random.Random(17)
    for dim in (1, 2, 3):
        c = random_periodic(rng, dim, 30)
        good = config_to_obj(c)
        shuffled = dict(good, values=rng.sample(good["values"],
                                                len(good["values"])))
        assert config_from_obj(shuffled) == c
        assert config_to_obj(config_from_obj(shuffled)) == good
    good = {"kind": "periodic", "dim": 2, "basis": [[3, 1], [0, 2]],
            "values": [{"res": [a, b], "val": a + b}
                       for a in range(3) for b in range(2)]}
    for values in (good["values"][1:],  # missing
                   good["values"] + [{"res": [3, 0], "val": 7}],  # extra
                   good["values"][1:] + [{"res": [0, 2], "val": 7}]):  # off
        with pytest.raises(SchemaError) as err:
            config_from_obj(dict(good, values=values))
        assert str(err.value) == _NOT_CANONICAL
    with pytest.raises(SchemaError) as err:
        config_from_obj(_periodic_doc([{"res": [0, 0], "val": 1}]))
    assert str(err.value) == _NOT_CANONICAL


def test_fibersum_roundtrip_and_rejections():
    fs = FiberSum(2, [make_fiber((3, 1), (1, -2), [1, 0, 2]),
                      make_fiber((0, 4), (1, 0), [5])])
    assert config_from_obj(config_to_obj(fs)) == fs
    base = {"kind": "fibersum", "dim": 2}
    with pytest.raises(SchemaError):  # non-primitive direction
        config_from_obj({**base, "fibers": [
            {"anchor": [0, 0], "dir": [2, 0], "period": 1, "vals": [1]}]})
    with pytest.raises(SchemaError):  # non-canonical anchor
        config_from_obj({**base, "fibers": [
            {"anchor": [5, 0], "dir": [1, 0], "period": 1, "vals": [1]}]})
    with pytest.raises(SchemaError):  # all-zero values
        config_from_obj({**base, "fibers": [
            {"anchor": [0, 0], "dir": [1, 0], "period": 2, "vals": [0, 0]}]})
    with pytest.raises(SchemaError):  # period/vals length mismatch
        config_from_obj({**base, "fibers": [
            {"anchor": [0, 0], "dir": [1, 0], "period": 3, "vals": [1, 0]}]})


def test_fibersum_accepts_reducible_period_and_normalizes():
    obj = {"kind": "fibersum", "dim": 2, "fibers": [
        {"anchor": [0, 0], "dir": [1, 0], "period": 4, "vals": [1, 0, 1, 0]}]}
    fs = config_from_obj(obj)
    assert fs.fibers[0].period == 2
    # re-serialization is canonical
    assert config_from_obj(config_to_obj(fs)) == fs


def test_tile_roundtrip_and_rejections():
    t = Tile(2, [(0, 0), (1, 0), (0, 1)])
    assert tile_from_obj({"dim": 2, "cells": [[0, 1], [1, 0], [0, 0]]}) == t
    with pytest.raises(SchemaError):
        tile_from_obj({"dim": 2, "cells": []})
    with pytest.raises(SchemaError):
        tile_from_obj({"dim": 2, "cells": [[0, 0], [0, 0]]})


def test_dumps_deterministic():
    f = difference_poly((1, -2))
    assert dumps(poly_to_obj(f)) == dumps(poly_from_obj(poly_to_obj(f)) and
                                          poly_to_obj(f))
    c = PeriodicConfig.constant(2, 3)
    assert dumps(config_to_obj(c)) == dumps(config_to_obj(
        config_from_obj(config_to_obj(c))))


# ---------------------------------------------------------------------------
# the writer emits json.dumps(doc, sort_keys=True, indent=2) + "\n"

_KEYS = st.one_of(st.text(max_size=6),
                  st.sampled_from(["res", "val", "%", "%d", "a%sb", "\u00e9",
                                   "\u2603", "\n", '"', "\\", "\x00"]))
_INTS = st.one_of(st.integers(-9, 9), st.integers(-10 ** 30, 10 ** 30))
_SCALARS = st.one_of(st.none(), st.booleans(), _INTS, st.floats(),
                     st.text(max_size=8))


@st.composite
def _records(draw, values):
    """Record lists of one shape (int or fixed-length int-list values, the
    writer's template path) or of shapes that differ in keys, lengths or
    value types."""
    keys = draw(st.lists(_KEYS, max_size=4, unique=True))
    fields = {}
    for k in keys:
        n = draw(st.integers(0, 3))
        fields[k] = draw(st.sampled_from([
            _INTS, st.lists(_INTS, min_size=n, max_size=n),
            st.lists(st.one_of(_INTS, st.booleans()), max_size=3),
            values]))
    recs = draw(st.lists(st.fixed_dictionaries(fields), max_size=5))
    if recs and draw(st.booleans()):
        odd = dict(recs[0])
        odd.update(draw(st.dictionaries(_KEYS, values, max_size=2)))
        if odd and draw(st.booleans()):
            odd.pop(draw(st.sampled_from(sorted(odd))))
        recs.insert(draw(st.integers(0, len(recs))), odd)
    return recs


_DOCS = st.recursive(
    st.one_of(_SCALARS,
              st.lists(st.one_of(_INTS, st.booleans()), max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_KEYS, inner, max_size=4),
                            _records(inner)),
    max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(_DOCS)
def test_dumps_matches_json_dumps(doc):
    assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_dumps_matches_json_dumps_on_configs():
    rng = random.Random(11)
    docs = [config_to_obj(random_periodic(rng, d, 40)) for d in (1, 2, 3)]
    docs += [config_to_obj(random_fiber_family(rng, 2, v))
             for v in ((1, 0), (1, -2), (2, 1))]
    docs.append(config_to_obj(WindowConfig((-3, 0), (2, 4),
                                           [i * i - 7 for i in range(30)])))
    docs.append({"terms": [{"exp": [0, 1], "coef": True}], "x": [1, True]})
    for doc in docs:
        assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# the bulk-checked reader agrees with the per-item reference parser

def _valid_doc(rng):
    kind = rng.choice(("window", "periodic", "fibersum"))
    if kind == "window":
        d = rng.choice((1, 2, 3))
        lo = [rng.randint(-3, 1) for _ in range(d)]
        hi = [a + rng.randint(0, 2) for a in lo]
        n = 1
        for a, b in zip(lo, hi):
            n *= b - a + 1
        return {"kind": "window", "dim": d, "lo": lo, "hi": hi,
                "values": [rng.randint(-4, 4) for _ in range(n)]}
    if kind == "periodic":
        return config_to_obj(random_periodic(rng, rng.choice((1, 2, 3)), 12))
    return config_to_obj(random_fiber_family(
        rng, 2, rng.choice(((1, 0), (0, 1), (1, -1), (2, 1))), max_fibers=3,
        max_period=4))


def _slots(doc):
    """(container, key) for every list item and dict value below doc."""
    out = []
    items = (enumerate(doc) if isinstance(doc, list) else doc.items())
    for k, v in items:
        out.append((doc, k))
        if isinstance(v, (list, dict)):
            out += _slots(v)
    return out


_BAD = [True, False, 0.0, 1.5, "1", None, [], {}, -1, 0, 10 ** 20]


def _mutate(doc, rng):
    # half of the mutations land in the value records (where the bulk
    # checks run), the terms or the cells
    body = next((doc[k] for k in ("values", "fibers", "terms", "cells")
                 if k in doc), None)
    if not isinstance(body, list) or rng.random() < 0.5:
        body = doc
    containers = [body] + [c[k] for c, k in _slots(body)
                           if isinstance(c[k], (list, dict))]
    slots = _slots(body)
    op = rng.randrange(5)
    if op == 0 and slots:  # a wrongly typed or out-of-range value
        c, k = rng.choice(slots)
        c[k] = copy.deepcopy(rng.choice(_BAD))
        return
    target = rng.choice(containers)
    if isinstance(target, list):
        if op == 1 and target:  # wrong length
            del target[rng.randrange(len(target))]
        elif op == 2 and target:  # a repeated item: a duplicate residue
            target.insert(rng.randrange(len(target) + 1),
                          copy.deepcopy(rng.choice(target)))
        else:
            target.append(copy.deepcopy(rng.choice(_BAD)))
    elif op in (1, 3) and target:  # a missing key
        del target[rng.choice(sorted(target))]
    else:  # an extra key
        target[rng.choice(("extra", "val", "res", "kind"))] = rng.randint(0, 3)


def _outcome(parse, doc):
    try:
        return "ok", parse(copy.deepcopy(doc))
    except Exception as exc:  # the type and the message must agree
        return type(exc).__name__, str(exc)


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 3))
def test_config_from_obj_matches_reference_parser(seed, mutations):
    rng = random.Random(seed)
    doc = _valid_doc(rng)
    for _ in range(mutations):
        _mutate(doc, rng)
    got = _outcome(config_from_obj, doc)
    assert got == _outcome(reference_config_from_obj, doc)
    if got[0] != "ok":
        assert got[0] == "SchemaError"


# ---------------------------------------------------------------------------
# the polynomial and tile parsers keep their invariants or raise SchemaError

def _valid_poly_doc(rng):
    return poly_to_obj(random_poly(rng, rng.choice((1, 2, 3)), exp_range=2))


def _valid_tile_doc(rng):
    d = rng.choice((1, 2, 3))
    cells = {tuple(rng.randint(-2, 2) for _ in range(d))
             for _ in range(rng.randint(1, 5))}
    return {"dim": d, "cells": [list(c) for c in sorted(cells)]}


def _is_int_vector(v, dim):
    return len(v) == dim and all(type(a) is int for a in v)


def _check_poly(f, doc):
    terms = f.terms()
    exps = [e for e, _ in terms]
    assert len(set(exps)) == len(exps)
    assert all(type(k) is int and k != 0 for _, k in terms)
    assert all(_is_int_vector(e, f.dim) for e in exps)
    # every term of the document is kept: none dropped, merged or changed
    assert f.dim == doc["dim"]
    assert terms == sorted((tuple(t["exp"]), t["coef"])
                           for t in doc["terms"])


def _check_tile(tile, doc):
    cells = [tuple(c) for c in doc["cells"]]
    assert len(set(cells)) == len(cells)  # a repeated cell is an error
    assert tile.cells and tile.cells == frozenset(cells)
    assert tile.dim == doc["dim"]
    assert all(_is_int_vector(c, tile.dim) for c in tile.cells)


_PARSERS = {"poly": (poly_from_obj, _valid_poly_doc, _check_poly),
            "tile": (tile_from_obj, _valid_tile_doc, _check_tile)}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_PARSERS)), st.integers(0, 2 ** 32),
       st.integers(0, 3))
def test_poly_and_tile_parsers_keep_invariants_or_raise_schema_error(
        kind, seed, mutations):
    parse, valid_doc, check = _PARSERS[kind]
    rng = random.Random(seed)
    doc = valid_doc(rng)
    for _ in range(mutations):
        _mutate(doc, rng)
    try:
        obj = parse(copy.deepcopy(doc))
    except SchemaError:
        return
    check(obj, doc)
