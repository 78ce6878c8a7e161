import json
import random
import time

import pytest

from perdec.config import (FiberSum, PeriodicConfig, WindowConfig, make_fiber)
from perdec.errors import SchemaError
from perdec.laurent import difference_poly
from perdec.serialize import (config_from_obj, config_to_obj, dumps,
                              poly_from_obj, poly_to_obj, tile_from_obj)
from perdec.tiling import Tile

from helpers import random_periodic, random_poly


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
    assert config_from_obj(good).values[(2, 1)] == 3
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
