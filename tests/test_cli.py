import hashlib
import json
import os
import subprocess
import sys

import pytest

from perdec import cli
from perdec.cli import main
from perdec.config import (FiberSum, PeriodicConfig, WindowConfig,
                           box_points, make_fiber, rasterize)
from perdec.decompose import Bounds
from perdec.serialize import config_from_obj, config_to_obj, dumps, poly_to_obj
from perdec.laurent import LaurentPoly, difference_poly, poly_product

from helpers import (THREE_DIRECTIONS_2D, THREE_FACTORS_2D,
                     guard_periodic_reads, periodic_from_function)

CHECKER = PeriodicConfig(2, [(2, 0), (0, 2)], [0, 1, 1, 0])


def write(path, obj):
    path.write_text(dumps(obj))
    return str(path)


@pytest.fixture
def files(tmp_path):
    f = write(tmp_path / "f.json", poly_to_obj(difference_poly((1, 0))))
    g = write(tmp_path / "g.json", poly_to_obj(difference_poly((0, 1))))
    cb = write(tmp_path / "cb.json", config_to_obj(CHECKER))
    tile_x = {"dim": 2, "cells": [[0, 0], [1, 0]]}
    tile_y = {"dim": 2, "cells": [[0, 0], [0, 1]]}
    tiles = write(tmp_path / "tiles.json", [tile_x, tile_y])
    factors = write(tmp_path / "factors.json", [
        poly_to_obj(difference_poly((1, 1))),
        poly_to_obj(difference_poly((1, -1)))])
    tilepoly = write(tmp_path / "tilepoly.json",
                     poly_to_obj(LaurentPoly(2, {(0, 0): 1, (-1, 0): 1})))
    return tmp_path, dict(f=f, g=g, cb=cb, tiles=tiles, factors=factors,
                          tilepoly=tilepoly)


def manifest(out):
    with open(os.path.join(out, "manifest.json")) as fh:
        return json.load(fh)


def test_poly_mul(files):
    tmp, fx = files
    out = str(tmp / "out_mul")
    assert main(["--out", out, "poly", "mul", fx["f"], fx["g"]]) == 0
    with open(os.path.join(out, "result.json")) as fh:
        result = json.load(fh)
    assert len(result["terms"]) == 4
    m = manifest(out)
    assert set(m["inputs"]) == {fx["f"], fx["g"]}
    assert m["outputs"] == ["result.json"]
    assert "error" not in m


def test_poly_add_inverse_is_zero(files):
    tmp, fx = files
    neg = write(tmp / "neg.json", poly_to_obj(-difference_poly((1, 0))))
    out = str(tmp / "out_add")
    assert main(["--out", out, "poly", "add", fx["f"], neg]) == 0
    with open(os.path.join(out, "result.json")) as fh:
        assert json.load(fh)["terms"] == []


def test_poly_line_dir_absent(files):
    tmp, fx = files
    mono = write(tmp / "mono.json",
                 poly_to_obj(LaurentPoly.monomial((2, 1), 3)))
    out = str(tmp / "out_line")
    assert main(["--out", out, "poly", "line-dir", mono]) == 0
    assert manifest(out)["results"]["line"] == "absent"


def test_poly_line_dir_of_a_line_polynomial(files):
    tmp, fx = files
    line = write(tmp / "line.json", poly_to_obj(difference_poly((2, 4))))
    out = str(tmp / "out_line")
    assert main(["--out", out, "poly", "line-dir", line]) == 0
    expected = {"direction": [1, 2], "anchor": [0, 0]}
    assert manifest(out)["results"]["line"] == expected
    with open(os.path.join(out, "line-dir.json")) as fh:
        assert json.load(fh) == expected


def test_act_tile_polynomial_gives_constant(files):
    tmp, fx = files
    xm2 = write(tmp / "xm2.json", config_to_obj(
        periodic_from_function(2, [(2, 0), (0, 1)], lambda r: r[0] % 2)))
    out = str(tmp / "out_act")
    assert main(["--out", out, "act", fx["tilepoly"], xm2]) == 0
    with open(os.path.join(out, "result.json")) as fh:
        result = config_from_obj(json.load(fh))
    assert all(v == 1 for v in result.values)


def test_act_identity(files):
    tmp, fx = files
    one = write(tmp / "one.json", poly_to_obj(LaurentPoly.constant(2, 1)))
    out = str(tmp / "out_id")
    assert main(["--out", out, "act", one, fx["cb"]]) == 0
    with open(os.path.join(out, "result.json")) as fh:
        assert config_from_obj(json.load(fh)) == CHECKER


def test_act_by_a_far_period_reads_only_the_table(files, monkeypatch):
    # X^(10**6, 10**6) is a period of the checkerboard: the result is the
    # input doubled, from a read under twice the table, not of 10**12 points
    guard_periodic_reads(monkeypatch)
    tmp, fx = files
    far = write(tmp / "far.json", poly_to_obj(
        LaurentPoly(2, {(10 ** 6, 10 ** 6): 1, (0, 0): 1})))
    two = write(tmp / "two.json", poly_to_obj(LaurentPoly.constant(2, 2)))
    outs = [tmp / "out_far", tmp / "out_two"]
    for out, poly in zip(outs, (far, two)):
        assert main(["--out", str(out), "act", poly, fx["cb"]]) == 0
    assert len({(out / "result.json").read_bytes() for out in outs}) == 1


def test_act_empty_erosion_fails(files):
    tmp, fx = files
    tiny = write(tmp / "tiny.json", config_to_obj(
        rasterize(CHECKER, (0, 0), (0, 0))))
    out = str(tmp / "out_tiny")
    assert main(["--out", out, "act", fx["f"], tiny]) == 1


def test_decompose_factors(files):
    tmp, fx = files
    out = str(tmp / "out_dec")
    assert main(["--out", out, "--window=-8..8,-8..8", "decompose",
                 fx["cb"], "--factors", fx["factors"]]) == 0
    m = manifest(out)
    assert m["verdicts"]["sum_matches"]
    comps = [config_from_obj(json.load(open(os.path.join(out, name))))
             for name in m["outputs"]]
    assert len(comps) == 2
    for x in box_points((-8, -8), (8, 8)):
        assert sum(c.value_at(x) for c in comps) == CHECKER.value_at(x)


def test_decompose_with_search(files):
    tmp, fx = files
    out = str(tmp / "out_search")
    assert main(["--out", out, "--window=-6..6,-6..6", "decompose",
                 fx["cb"], "--annihilator", fx["tilepoly"]]) == 0
    m = manifest(out)
    assert m["results"]["certificate"] == [[2, 0]]


@pytest.mark.parametrize("second, flags", [
    ("--annihilator", "--factors and --annihilator"),
    ("--periodizers", "--factors and --periodizers")])
def test_decompose_rejects_a_second_mode(files, second, flags):
    # a second mode is an error naming both flags, not silently ignored
    tmp, fx = files
    out = str(tmp / "out_two_modes")
    assert main(["--out", out, "decompose", fx["cb"], "--factors",
                 fx["factors"], second, fx["tilepoly"]]) == 1
    m = manifest(out)
    assert os.listdir(out) == ["manifest.json"]
    assert m["error"]["type"] == "PerdecError"
    assert m["error"]["message"].endswith(f"not {flags}")


def test_decompose_k_periodizers(files):
    tmp, fx = files
    t2 = write(tmp / "t2.json",
               poly_to_obj(LaurentPoly(2, {(0, 0): 1, (0, -1): 1})))
    out = str(tmp / "out_k")
    assert main(["--out", out, "--window=-6..6,-6..6", "decompose", fx["cb"],
                 "--k", "2", "--periodizers", fx["tilepoly"], t2]) == 0
    m = manifest(out)
    assert m["verdicts"]["sum_matches"]
    assert any(key.endswith("_periods") for key in m["results"])


def test_sparse_commands(files, tmp_path):
    tmp, fx = files
    fibers = {"kind": "fibersum", "dim": 2, "fibers": [
        {"anchor": [0, 0], "dir": [1, 0], "period": 2, "vals": [3, 5]},
        {"anchor": [0, 0], "dir": [0, 1], "period": 3, "vals": [1, 1, 0]}]}
    cfg = write(tmp / "fs.json", fibers)
    phi = write(tmp / "phi.json", poly_to_obj(difference_poly((2, 0))))
    psi = write(tmp / "psi.json", poly_to_obj(difference_poly((0, 3))))
    both = write(tmp / "both.json", [poly_to_obj(difference_poly((2, 0))),
                                     poly_to_obj(difference_poly((0, 3)))])
    expanded = write(tmp / "prod.json", poly_to_obj(
        difference_poly((2, 0)) * difference_poly((0, 3))))

    out = str(tmp / "out_split")
    assert main(["--out", out, "sparse", "split", cfg, phi, psi]) == 0
    m = manifest(out)
    assert m["outputs"] == ["family_00.json", "family_01.json"]

    out = str(tmp / "out_sd")
    assert main(["--out", out, "sparse", "decompose", cfg, both]) == 0

    out = str(tmp / "out_full")
    assert main(["--out", out, "sparse", "full", cfg, expanded]) == 0
    fams = [config_from_obj(json.load(
        open(os.path.join(out, f"family_{i:02d}.json")))) for i in (0, 1)]
    by_dir = {fam.fibers[0].direction: fam.fibers[0].vals for fam in fams}
    assert by_dir == {(0, 1): (1, 1, 0), (1, 0): (3, 5)}

    horiz = write(tmp / "h.json", {"kind": "fibersum", "dim": 2, "fibers": [
        {"anchor": [0, 0], "dir": [1, 0], "period": 2, "vals": [3, 5]}]})
    out = str(tmp / "out_fib")
    assert main(["--out", out, "sparse", "fibers", horiz,
                 "--direction", "1,0"]) == 0


def test_sparse_split_evaluates_window_identities(tmp_path, monkeypatch):
    # on a window input `sparse split` records the identities of `sparse
    # decompose`, the family sum evaluated on the check window: a split
    # result with one fiber value changed fails it and exits 1
    fibers = FiberSum(2, [make_fiber((0, 0), (1, 0), [3, 5]),
                          make_fiber((0, 1), (0, 1), [1, 1, 0])])
    cfg = write(tmp_path / "w.json",
                config_to_obj(rasterize(fibers, (-24, -24), (24, 24))))
    phi = write(tmp_path / "phi.json", poly_to_obj(difference_poly((2, 0))))
    psi = write(tmp_path / "psi.json", poly_to_obj(difference_poly((0, 3))))

    def run(label):
        out = str(tmp_path / label)
        code = main(["--out", out, "--kmax", "8", "--patience", "2",
                     "sparse", "split", cfg, phi, psi])
        return code, {name[len("identity: "):]: holds for name, holds
                      in manifest(out)["verdicts"].items()
                      if name.startswith("identity: ")}

    assert run("out_split") == (0, dict.fromkeys(
        ["per-family annihilation", "family sum = input"], True))
    split = cli.sparse_split2

    def mutated_split(*args):
        c1, c2 = split(*args)
        f = c1.fibers[0]
        bumped = make_fiber(f.anchor, f.direction,
                            (f.vals[0] + 1,) + f.vals[1:])
        return FiberSum(2, [bumped] + list(c1.fibers[1:])), c2
    monkeypatch.setattr(cli, "sparse_split2", mutated_split)
    code, verdicts = run("out_mutated")
    assert code == 1
    assert verdicts == {"per-family annihilation": True,
                        "family sum = input": False}


@pytest.mark.parametrize("kind", ["fibersum", "window"])
def test_sparse_split_is_the_two_factor_sparse_decompose(tmp_path, kind):
    # `sparse split C PHI PSI` and `sparse decompose C [PHI, PSI]` write the
    # same family files and record the same verdicts and results
    fibers = FiberSum(2, [make_fiber((0, 0), (1, 0), [3, 5]),
                          make_fiber((0, 1), (0, 1), [1, 1, 0])])
    c = fibers if kind == "fibersum" else \
        rasterize(fibers, (-24, -24), (24, 24))
    cfg = write(tmp_path / "c.json", config_to_obj(c))
    phis = [difference_poly((2, 0)), difference_poly((0, 3))]
    phi, psi = (write(tmp_path / f"{name}.json", poly_to_obj(p))
                for name, p in zip(("phi", "psi"), phis))
    both = write(tmp_path / "both.json", [poly_to_obj(p) for p in phis])
    runs = {}
    for sub, files in (("split", [phi, psi]), ("decompose", [both])):
        out = str(tmp_path / sub)
        assert main(["--out", out, "--kmax", "8", "--patience", "2",
                     "sparse", sub, cfg, *files]) == 0
        m = manifest(out)
        written = {}
        for name in m["outputs"]:
            with open(os.path.join(out, name), "rb") as fh:
                written[name] = fh.read()
        runs[sub] = written, m["verdicts"], m["results"]
    assert sorted(runs["split"][0]) == ["family_00.json", "family_01.json"]
    assert runs["split"] == runs["decompose"]


def test_sparse_fibers_checks_a_window_extraction_on_the_cut(
        tmp_path, monkeypatch):
    # the extraction and the window input are compared on the --window
    # cut to the input's box: a wrong extraction records false, and so does
    # a --window that misses the box, as in `sparse split`
    fibers = FiberSum(2, [make_fiber((0, 0), (1, 0), [3, 5]),
                          make_fiber((0, 2), (1, 0), [1, 0, 2])])
    cfg = write(tmp_path / "w.json",
                config_to_obj(rasterize(fibers, (-6, -3), (8, 5))))

    def run(label, *flags):
        out = str(tmp_path / label)
        code = main(["--out", out, *flags, "sparse", "fibers", cfg,
                     "--direction", "1,0"])
        return code, manifest(out)["verdicts"]["extraction_consistent"]

    assert run("out") == (0, True)
    assert run("out_wide", "--window=-20..20,1..30") == (0, True)
    extract = cli.fiber_extract
    monkeypatch.setattr(cli, "fiber_extract",
                        lambda *args: extract(*args).convolve([((0, 1), 1)]))
    assert run("out_wrong") == (1, False)
    assert run("out_wrong_cut", "--window=-20..20,1..30") == (1, False)
    assert run("out_empty_cut", "--window=9..20,-8..8") == (1, False)


def test_sparse_fibers_checks_a_periodic_extraction_on_the_window(tmp_path):
    # a periodic input has no box to cut to: the --window itself is read,
    # and an empty one is an error that records no verdict
    cfg = write(tmp_path / "p.json",
                config_to_obj(PeriodicConfig(1, [(3,)], [1, 0, 2])))

    def run(label, *flags):
        out = str(tmp_path / label)
        code = main(["--out", out, *flags, "sparse", "fibers", cfg,
                     "--direction", "1"])
        return code, manifest(out)["verdicts"].get("extraction_consistent")

    assert run("out") == (0, True)
    assert run("out_empty", "--window=3..1") == (1, None)


@pytest.mark.parametrize("window, empty", [("3..2,0..1", "3..2"),
                                           ("-1..1,5..-5", "5..-5")])
@pytest.mark.parametrize("command", ["decompose", "tiling", "fibers"])
def test_an_empty_window_range_is_refused_before_any_work(files, monkeypatch,
                                                          command, window,
                                                          empty):
    # a range with lo > hi checks nothing: the run exits 1 naming it, before
    # any decomposition or extraction, and its manifest holds the error and
    # no verdict
    tmp, fx = files
    argv = {"decompose": ["decompose", fx["cb"], "--factors", fx["factors"]],
            "tiling": ["tiling", "decompose", fx["tiles"], fx["cb"]],
            "fibers": ["sparse", "fibers", fx["cb"], "--direction", "1,0"],
            }[command]

    def never(*args):
        raise AssertionError("work done for an empty window")
    for name in ("decompose_product", "cotiler_decompose", "fiber_extract"):
        monkeypatch.setattr(cli, name, never)
    out = str(tmp / "out")
    assert main(["--out", out, f"--window={window}", *argv]) == 1
    m = manifest(out)
    assert m["verdicts"] == {} and m["outputs"] == []
    assert m["error"]["type"] == "PerdecError"
    assert f"empty range {empty!r}" in m["error"]["message"]


def test_sparse_decompose_checks_a_window_family(tmp_path, monkeypatch):
    # off fiber sums the family must be annihilated exactly and the family
    # sum is evaluated on the check window cut to the input's box
    geometric = write(tmp_path / "geo.json", config_to_obj(
        WindowConfig((0, 0), (2, 7), [2 ** j for _ in range(3)
                                      for j in range(8)])))
    halving = write(tmp_path / "halving.json",
                    [poly_to_obj(LaurentPoly(2, {(0, 1): 2, (0, 0): -1}))])
    out = str(tmp_path / "out_geo")
    assert main(["--out", out, "sparse", "decompose", geometric,
                 halving]) == 1
    assert manifest(out)["error"]["type"] == "VerificationError"

    fibers = FiberSum(2, [make_fiber((0, 0), (1, 0), [3, 5]),
                          make_fiber((0, 2), (1, 0), [1, 0, 2])])
    cfg = write(tmp_path / "w.json",
                config_to_obj(rasterize(fibers, (-6, -3), (8, 5))))
    factor = write(tmp_path / "factor.json",
                   [poly_to_obj(difference_poly((6, 0)))])
    full = write(tmp_path / "f.json", poly_to_obj(difference_poly((6, 0))))

    def run(label, *argv):
        out = str(tmp_path / label)
        code = main(["--out", out, "sparse", *argv])
        return code, {name: holds for name, holds
                      in manifest(out)["verdicts"].items()}

    assert run("out_sd", "decompose", cfg, factor) == (0, {
        "identity: per-family annihilation": True,
        "identity: family sum = input": True})
    assert run("out_full", "full", cfg, full) == (0, {
        "identity: certificate annihilates": True,
        "identity: per-family annihilation": True,
        "identity: family sum = input": True})
    decompose = cli.sparse_decompose
    monkeypatch.setattr(cli, "sparse_decompose", lambda *args: [
        fam.convolve([((0, 1), 1)]) for fam in decompose(*args)])
    assert run("out_shifted", "decompose", cfg, factor) == (1, {
        "identity: per-family annihilation": True,
        "identity: family sum = input": False})


@pytest.mark.parametrize("n, code", [(100, 0), (60, 2)])
def test_sparse_window_with_three_directions(tmp_path, n, code):
    # each family is read from a translate limit on the check window; a
    # window too small for the limits is inconclusive and names the number
    # of translates it held
    lo = -(n // 2)
    cfg = write(tmp_path / "w.json", config_to_obj(rasterize(
        THREE_DIRECTIONS_2D, (lo, lo), (lo + n - 1, lo + n - 1))))
    factors = write(tmp_path / "factors.json",
                    [poly_to_obj(phi) for phi in THREE_FACTORS_2D])
    product = write(tmp_path / "f.json",
                    poly_to_obj(poly_product(THREE_FACTORS_2D)))
    box = Bounds().check_window(2)
    for argv in (["decompose", cfg, factors], ["full", cfg, product]):
        out = str(tmp_path / f"out_{argv[0]}")
        assert main(["--out", out, "sparse", *argv]) == code
        m = manifest(out)
        if code:
            assert m["error"]["type"] == "InconclusiveError"
            assert m["error"]["bound"] > 0
            continue
        assert m["verdicts"]["identity: family sum = input"]
        fams = [config_from_obj(json.load(open(os.path.join(out, name))))
                for name in m["outputs"]]
        assert {fam.fibers[0].direction: fam.values_on_box(*box)
                for fam in fams} == {
            d: THREE_DIRECTIONS_2D.parallel_part(d).values_on_box(*box)
            for d in [(1, 0), (0, 1), (1, 1)]}


def test_sparse_window_eroded_away_by_the_product(tmp_path):
    # the product X^(6,0)-1 times X^(0,1)-1 erodes a 5x5 window away: the
    # window holds no evidence, so the run is inconclusive with bound 0,
    # also when `sparse full` or `decompose` is handed the product as its
    # annihilator
    cfg = write(tmp_path / "w.json", config_to_obj(rasterize(
        FiberSum(2, [make_fiber((0, 0), (1, 0), [1, 2, 0, 0, 0, 0])]),
        (0, 0), (4, 4))))
    phis = [difference_poly((6, 0)), difference_poly((0, 1))]
    factors = write(tmp_path / "factors.json", [poly_to_obj(p) for p in phis])
    phi, psi = (write(tmp_path / f"{name}.json", poly_to_obj(p))
                for name, p in zip(("phi", "psi"), phis))
    product = write(tmp_path / "f.json", poly_to_obj(poly_product(phis)))
    for i, argv in enumerate((["sparse", "decompose", cfg, factors],
                              ["sparse", "split", cfg, phi, psi],
                              ["sparse", "full", cfg, product],
                              ["decompose", cfg, "--factors", factors],
                              ["decompose", cfg, "--annihilator", product])):
        out = str(tmp_path / f"out_{i}")
        assert main(["--out", out, *argv]) == 2
        error = manifest(out)["error"]
        assert error["type"] == "InconclusiveError"
        assert error["bound"] == 0
        assert "window too small" in error["message"]


def test_sparse_full_inconclusive_exit_code(files):
    tmp, fx = files
    c = {"kind": "fibersum", "dim": 2, "fibers": [
        {"anchor": [0, 0], "dir": [1, 0], "period": 6,
         "vals": [1, -1, 2, -2, 3, -3]}]}
    cfg = write(tmp / "c6.json", c)
    f = write(tmp / "f6.json", poly_to_obj(
        LaurentPoly(2, {(i, 0): 1 for i in range(6)})))
    out = str(tmp / "out_inc")
    assert main(["--out", out, "--bound-search", "4",
                 "sparse", "full", cfg, f]) == 2


def test_sparseness_command(files):
    tmp, fx = files
    out = str(tmp / "out_sp")
    assert main(["--out", out, "sparseness", fx["cb"],
                 "--constant", "3", "--m-max", "3"]) == 1
    m = manifest(out)
    assert m["verdicts"]["sparse"] is False
    assert m["results"]["certificate"]["violation"] is not None


def test_tiling_commands(files):
    tmp, fx = files
    out = str(tmp / "out_ind")
    assert main(["--out", out, "tiling", "independent", fx["tiles"]]) == 0
    assert manifest(out)["verdicts"]["independent"]

    out = str(tmp / "out_ver")
    assert main(["--out", out, "tiling", "verify", fx["tiles"],
                 fx["cb"]]) == 0
    m = manifest(out)
    assert m["verdicts"]["cotiler_00"] and m["verdicts"]["cotiler_01"]

    out = str(tmp / "out_td")
    assert main(["--out", out, "--window=-8..8,-8..8", "tiling", "decompose",
                 fx["tiles"], fx["cb"]]) == 0
    m = manifest(out)
    assert m["verdicts"]["sum_matches"]
    # the same writer as decompose: window and per-component witnesses
    assert m["results"]["window"] == {"lo": [-8, -8], "hi": [8, 8]}
    assert m["results"]["component_00_annihilator"] == poly_to_obj(
        difference_poly((0, 2)))
    assert m["results"]["component_00_periods"]

    dep = write(tmp / "dep.json", [
        {"dim": 2, "cells": [[0, 0], [1, 0]]},
        {"dim": 2, "cells": [[0, 0], [2, 0]]}])
    out = str(tmp / "out_dep")
    assert main(["--out", out, "tiling", "decompose", dep, fx["cb"]]) == 1


# SHA-256 of every component file for the fixture runs above; the bytes must
# not change when the writing code is refactored
_COMPONENT_SHA256 = {
    "factors": {
        "component_00.json":
            "00dbb482e22fc639d94c26fcc8093bae7652e4d305ca8320ea9465de1d73857c",
        "component_01.json":
            "24bc2bf045dad7837498b3cf6367f8de8c626ca0433c0a3e4bea6e2452446d93",
    },
    "annihilator": {
        "component_00.json":
            "45399ece0a7d0719f6575d7cbb433e21a9a838700c46ac50251a08bd4b99f890",
    },
    "k": {
        "component_00.json":
            "45399ece0a7d0719f6575d7cbb433e21a9a838700c46ac50251a08bd4b99f890",
    },
    "tiling": {
        "component_00.json":
            "24bc2bf045dad7837498b3cf6367f8de8c626ca0433c0a3e4bea6e2452446d93",
    },
}


@pytest.mark.parametrize("run", sorted(_COMPONENT_SHA256))
def test_component_files_keep_their_bytes(files, run):
    tmp, fx = files
    t2 = write(tmp / "t2.json",
               poly_to_obj(LaurentPoly(2, {(0, 0): 1, (0, -1): 1})))
    argv = {
        "factors": ["--window=-8..8,-8..8", "decompose", fx["cb"],
                    "--factors", fx["factors"]],
        "annihilator": ["--window=-6..6,-6..6", "decompose", fx["cb"],
                        "--annihilator", fx["tilepoly"]],
        "k": ["--window=-6..6,-6..6", "decompose", fx["cb"], "--k", "2",
              "--periodizers", fx["tilepoly"], t2],
        "tiling": ["--window=-8..8,-8..8", "tiling", "decompose",
                   fx["tiles"], fx["cb"]],
    }[run]
    out = str(tmp / f"out_bytes_{run}")
    assert main(["--out", out] + argv) == 0
    m = manifest(out)
    assert m["outputs"] == sorted(_COMPONENT_SHA256[run])
    for name, digest in _COMPONENT_SHA256[run].items():
        with open(os.path.join(out, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, name
        i = name[len("component_"):-len(".json")]
        assert f"component_{i}_annihilator" in m["results"]


# SHA-256 of the result files of `act` on each configuration kind and of
# `tiling verify`; recorded before the writer was rewritten, so they pin the
# bytes of `json.dumps(obj, sort_keys=True, indent=2) + "\n"`
_ACT_POLY = {"dim": 2, "terms": [{"exp": [0, 0], "coef": 2},
                                 {"exp": [1, -1], "coef": -3},
                                 {"exp": [0, 2], "coef": 1}]}
_ACT_INPUTS = {
    "window": {"kind": "window", "dim": 2, "lo": [-4, -3], "hi": [5, 6],
               "values": [(7 * i * i - 3 * i) % 23 - 11 for i in range(100)]},
    "periodic": config_to_obj(periodic_from_function(
        2, [(3, 1), (0, 4)], lambda r: (5 * r[0] - 2 * r[1]) % 7 - 3)),
    "fibersum": {"kind": "fibersum", "dim": 2, "fibers": [
        {"anchor": [0, 0], "dir": [1, 0], "period": 2, "vals": [3, 5]},
        {"anchor": [0, 0], "dir": [0, 1], "period": 3, "vals": [1, 1, 0]},
        {"anchor": [0, 1], "dir": [1, -2], "period": 3, "vals": [-4, 0, 9]}]},
}
_RESULT_SHA256 = {
    "window":
        "54617a26bfacf11449bf31683fc4f2ffe89a37051e5c72ce1e212a574aff22f6",
    "periodic":
        "4cef6048f1308e69a4c407e4d90aec087e3cf8a177842daff46420f124b92603",
    "fibersum":
        "9f6f13e788351375e80c7afe29805987bfd9c8db11c7f0b90715b622f798b3e1",
    "tiling_verify":
        "6b2268905ac67ca451e8c7013249dcbf6aeaaab89774cdfeefe8bfe8c482d286",
}


@pytest.mark.parametrize("run", sorted(_RESULT_SHA256))
def test_result_files_keep_their_bytes(files, run):
    tmp, fx = files
    out = str(tmp / f"out_sha_{run}")
    if run == "tiling_verify":
        argv, name = ["tiling", "verify", fx["tiles"], fx["cb"]], "report.json"
    else:
        poly = write(tmp / "act_poly.json", _ACT_POLY)
        cfg = write(tmp / f"act_{run}.json", _ACT_INPUTS[run])
        argv, name = ["act", poly, cfg], "result.json"
    assert main(["--out", out] + argv) == 0
    with open(os.path.join(out, name), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == _RESULT_SHA256[run]


# SHA-256 of the family files of `sparse split` on a window of two fibers
# per direction; recorded while the split had a window algorithm of its own
_SPLIT_WINDOW_SHA256 = {
    "family_00.json":
        "92c3fa2b29fb605305dcb995b5e45055306056ea30a790ecb4545a96e6b195d0",
    "family_01.json":
        "f7ab0029384e28b61d4dbcb5a7eeaac00b41ef87ddc79e7568274c6da6738481",
}


def test_sparse_split_window_families_keep_their_bytes(tmp_path):
    fibers = FiberSum(2, [make_fiber((0, 0), (1, 0), [3, 5]),
                          make_fiber((0, -2), (1, 0), [-1]),
                          make_fiber((0, 1), (0, 1), [1, 1, 0]),
                          make_fiber((3, 0), (0, 1), [2])])
    cfg = write(tmp_path / "w.json",
                config_to_obj(rasterize(fibers, (-44, -44), (43, 43))))
    phi = write(tmp_path / "phi.json", poly_to_obj(difference_poly((2, 0))))
    psi = write(tmp_path / "psi.json", poly_to_obj(difference_poly((0, 3))))
    out = str(tmp_path / "out")
    assert main(["--out", out, "sparse", "split", cfg, phi, psi]) == 0
    assert manifest(out)["outputs"] == sorted(_SPLIT_WINDOW_SHA256)
    for name, digest in _SPLIT_WINDOW_SHA256.items():
        with open(os.path.join(out, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, name


def test_decompose_non_integral_component_exits_one(tmp_path, capsys):
    # a rational transfer component is refused, not truncated
    cfg = write(tmp_path / "one.json",
                config_to_obj(PeriodicConfig.constant(2, 1)))
    factors = write(tmp_path / "half.json", [
        poly_to_obj(difference_poly((0, 1))),
        poly_to_obj(LaurentPoly(2, {(0, 0): 2, (1, 0): -1}))])
    out = str(tmp_path / "out_half")
    assert main(["--out", out, "--window=-3..3,-3..3", "decompose", cfg,
                 "--factors", factors]) == 1
    assert capsys.readouterr().err == (
        "perdec: error: non-integer value 1/2 at (1, -3): "
        "a window holds integers\n")
    assert os.listdir(out) == ["manifest.json"]
    assert manifest(out)["outputs"] == []


def _components(out):
    return {name: open(os.path.join(out, name), "rb").read()
            for name in os.listdir(out) if name.startswith("component_")}


def test_window_input_decomposes_like_its_periodic_source(tmp_path, capsys):
    # a [-15, 14]^2 window of a 6x6-periodic input: its decomposition
    # matches the periodic input's up to r = 12 and runs out of the window
    # inside a recurrence at r = 13
    c = periodic_from_function(
        2, [(6, 0), (0, 6)],
        lambda r: (r[0] % 3) * (r[1] + 1) + (r[1] % 2) * (r[0] + 2))
    periodic = write(tmp_path / "periodic.json", config_to_obj(c))
    window = write(tmp_path / "window.json",
                   config_to_obj(rasterize(c, (-15, -15), (14, 14))))
    factors = write(tmp_path / "factors.json", [
        poly_to_obj(difference_poly((3, 0))),
        poly_to_obj(difference_poly((0, 2)))])

    def run(cfg, r):
        out = str(tmp_path / f"out_{r}_{os.path.basename(cfg)}")
        code = main(["--out", out, f"--window=-{r}..{r - 1},-{r}..{r - 1}",
                     "decompose", cfg, "--factors", factors])
        return code, out

    code, out = run(window, 12)
    assert code == 0
    ref_code, ref_out = run(periodic, 12)
    assert ref_code == 0
    assert sorted(_components(out)) == ["component_00.json",
                                        "component_01.json"]
    assert _components(out) == _components(ref_out)
    capsys.readouterr()
    code, out = run(window, 13)
    assert code == 1
    assert capsys.readouterr().err == (
        "perdec: error: (-16, 2) outside window (-15, -13)..(14, 14)\n")


def test_three_factor_window_input_decomposes_like_its_periodic_source(
        tmp_path):
    # the residual of a window input is lazy, so it is read only on the
    # boxes asked for, not over the whole window, where the recurrences of
    # its transfer parts run out of the window
    family = [(1, 0), (0, 1), (1, 1)]
    c = periodic_from_function(2, [(12, 0), (0, 12)], lambda r: sum(
        (5 * ((b * r[0] - a * r[1]) % 12) + 3 * k) % 7 - 3
        for k, (a, b) in enumerate(family)))
    periodic = write(tmp_path / "periodic.json", config_to_obj(c))
    window = write(tmp_path / "window.json",
                   config_to_obj(rasterize(c, (-30, -30), (29, 29))))
    factors = write(tmp_path / "factors.json",
                    [poly_to_obj(difference_poly(v)) for v in family])
    outs = []
    for cfg in (window, periodic):
        out = str(tmp_path / f"out_{os.path.basename(cfg)}")
        assert main(["--out", out, "--window=-6..5,-6..5", "decompose", cfg,
                     "--factors", factors]) == 0
        outs.append(_components(out))
    assert sorted(outs[0]) == [f"component_0{i}.json" for i in range(3)]
    assert outs[0] == outs[1]


def test_decompose_k_names_the_subspace_no_periodizer_avoids(tmp_path,
                                                             capsys):
    checker = write(tmp_path / "checker.json", config_to_obj(
        PeriodicConfig(2, [(1, 1), (0, 2)], [0, 1])))
    family = write(tmp_path / "family.json", [
        poly_to_obj(LaurentPoly(2, {(0, 0): 1, (1, 0): 1}))])
    out = str(tmp_path / "out_k")
    assert main(["--out", out, "decompose", checker, "--k", "2",
                 "--periodizers", family]) == 1
    assert capsys.readouterr().err == (
        "perdec: error: no periodizer meets the subspace spanned by "
        "[[1, 0]] only at the origin: member 0 has the support point "
        "(1, 0) in it\n")


def test_schema_error_exit_one(files, tmp_path):
    tmp, fx = files
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "terms": [{"exp": [0,0], "coef": 0}]}')
    out = str(tmp / "out_bad")
    assert main(["--out", out, "poly", "add", str(bad), fx["f"]]) == 1


def test_failed_runs_leave_a_manifest_naming_the_error(tmp_path):
    # a schema error and an out-of-domain --window exit 1, a window too
    # small for the translate limits of a split exits 2 with the number of
    # translates it held as the bound; each writes only its manifest
    bad = write(tmp_path / "bad.json", {"kind": "window", "dim": 2,
                                        "lo": [0, 0], "hi": [1, 1],
                                        "values": [1, 2, 3]})
    phi = write(tmp_path / "phi.json", poly_to_obj(difference_poly((2, 0))))
    psi = write(tmp_path / "psi.json", poly_to_obj(difference_poly((0, 3))))
    checker = write(tmp_path / "w5.json",
                    config_to_obj(rasterize(CHECKER, (-2, -2), (2, 2))))
    factors = write(tmp_path / "factors.json",
                    [poly_to_obj(difference_poly((2, 0)))])
    fibers = FiberSum(2, [make_fiber((0, 0), (1, 0), [3, 5]),
                          make_fiber((0, 1), (0, 1), [1, 1, 0])])
    small = write(tmp_path / "w25.json",
                  config_to_obj(rasterize(fibers, (-12, -12), (12, 12))))
    held = ("no stabilization within the 3 translates that the domain of "
            "WindowConfig((-12, -12)..(12, 12)) holds")
    for argv, code, error in (
            (["act", phi, bad], 1,
             ["SchemaError", "window value count does not match the box",
              None]),
            (["--window=-3..3,-3..3", "decompose", checker, "--factors",
              factors], 1,
             ["OutOfDomainError", "(-3, -3) outside window (-2, -2)..(2, 2)",
              None]),
            (["sparse", "split", small, phi, psi], 2,
             ["InconclusiveError", held, 3])):
        out = str(tmp_path / f"out_{code}_{argv[0]}")
        assert main(["--out", out] + argv) == code
        assert os.listdir(out) == ["manifest.json"]
        m = manifest(out)
        assert m["outputs"] == [] and m["verdicts"] == {}
        assert m["error"] == dict(zip(("type", "message", "bound"), error))


def test_out_naming_an_existing_file_exits_one(tmp_path):
    # no directory, so no manifest, can be made where --out names a file:
    # `python -m perdec.cli` exits 1 with one error line and no traceback
    taken = tmp_path / "taken"
    taken.write_text("kept")
    f = write(tmp_path / "f.json", poly_to_obj(difference_poly((1, 0))))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "perdec.cli", "--out", str(taken), "poly",
         "add", f, f], capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(
        f"perdec: error: cannot create output directory {taken}: ")
    assert proc.stderr.count("\n") == 1
    assert taken.read_text() == "kept"


def test_a_success_and_a_failure_record_the_same_command(tmp_path):
    # main writes every manifest, with the command, sub-command and
    # positional files as parsed, and the bounds of the run's Bounds
    fibers = FiberSum(2, [make_fiber((0, 0), (1, 0), [3, 5]),
                          make_fiber((0, 0), (0, 1), [1, 1, 0])])
    cfg = write(tmp_path / "fs.json", config_to_obj(fibers))
    phi = write(tmp_path / "phi.json", poly_to_obj(difference_poly((2, 0))))
    psi = write(tmp_path / "psi.json", poly_to_obj(difference_poly((0, 3))))
    argv = ["sparse", "split", cfg, phi, psi]
    assert main(["--out", str(tmp_path / "ok")] + argv) == 0
    (tmp_path / "psi.json").write_text(
        '{"dim": 2, "terms": [{"exp": [0, 0], "coef": 0}]}')
    assert main(["--out", str(tmp_path / "bad")] + argv) == 1
    ok, bad = manifest(tmp_path / "ok"), manifest(tmp_path / "bad")
    assert "error" not in ok and bad["error"]["type"] == "SchemaError"
    assert ok["command"] == bad["command"] == argv
    assert ok["bounds"] == bad["bounds"] == {
        "search": 32, "period": 64, "k_max": 256, "patience": 8,
        "check_radius": 8}


@pytest.mark.parametrize("argv", [
    ["act", "MISSING", "{cb}"], ["act", "{f}", "MISSING"],
    ["decompose", "{cb}", "--factors", "MISSING"],
    ["tiling", "verify", "MISSING", "{cb}"]])
def test_missing_input_exits_one(files, capsys, argv):
    tmp, fx = files
    missing = str(tmp / "missing.json")
    argv = [a.replace("MISSING", missing).format(**fx) for a in argv]
    assert main(["--out", str(tmp / "out_missing")] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"perdec: error: cannot read {missing}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv,message", [
    (["sparse", "split", "{cb}"],
     "sparse split: missing the phi polynomial file"),
    (["sparse", "split", "{cb}", "{f}"],
     "sparse split: missing the psi polynomial file"),
    (["sparse", "split", "{cb}", "{f}", "{g}", "{factors}"],
     "sparse split: unexpected file '{factors}'"),
    (["sparse", "decompose", "{cb}"],
     "sparse decompose: missing the polynomial list file"),
    (["sparse", "full", "{cb}"], "sparse full: missing the annihilator file"),
    (["sparse", "full", "{cb}", "{f}", "{g}"],
     "sparse full: unexpected file '{g}'"),
    (["sparse", "fibers", "{cb}", "{f}", "--direction", "1,0"],
     "sparse fibers: unexpected file '{f}'"),
    (["tiling", "verify", "{tiles}"],
     "tiling verify: missing the configuration file"),
    (["tiling", "decompose", "{tiles}"],
     "tiling decompose: missing the configuration file"),
    (["tiling", "independent", "{tiles}", "{cb}"],
     "tiling independent: unexpected file '{cb}'"),
    (["poly", "line-dir", "{f}", "{cb}"],
     "poly line-dir: unexpected file '{cb}'"),
    (["poly", "add", "{f}"], "poly add: missing the second polynomial file"),
    (["poly", "mul", "{f}", "{g}", "{f}"],
     "poly mul: unexpected file '{f}'")])
def test_missing_or_extra_positional_file_exits_one(files, capsys, argv,
                                                    message):
    tmp, fx = files
    out = str(tmp / "out_positional")
    assert main(["--out", out] + [a.format(**fx) for a in argv]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == f"perdec: error: {message.format(**fx)}\n"
    assert manifest(out)["error"]["message"] == message.format(**fx)


@pytest.mark.parametrize("config,direction", [
    ("cb", "1,x"), ("window", "0,1,5"), ("window", "1")])
def test_sparse_fibers_bad_direction_exits_one(files, capsys, config,
                                               direction):
    # a direction that is not dim comma-separated integers is a usage
    # error naming the flag, with a manifest, not a traceback
    tmp, fx = files
    fx["window"] = write(tmp / "w.json",
                         config_to_obj(rasterize(CHECKER, (0, 0), (3, 3))))
    out = str(tmp / "out_direction")
    assert main(["--out", out, "sparse", "fibers", fx[config],
                 f"--direction={direction}"]) == 1
    message = ("--direction needs 2 comma-separated integers, "
               f"got {direction!r}")
    assert capsys.readouterr().err == f"perdec: error: {message}\n"
    assert os.listdir(out) == ["manifest.json"]
    assert manifest(out)["error"] == {"type": "PerdecError",
                                      "message": message, "bound": None}


def test_manifest_hashes_the_input_bytes(files):
    tmp, fx = files
    out = str(tmp / "out_hash")
    assert main(["--out", out, "act", fx["f"], fx["cb"]]) == 0
    for path, digest in manifest(out)["inputs"].items():
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest


def test_determinism_byte_identical_results(files):
    tmp, fx = files
    out1, out2 = str(tmp / "d1"), str(tmp / "d2")
    for out in (out1, out2):
        assert main(["--out", out, "--window=-6..6,-6..6", "decompose",
                     fx["cb"], "--factors", fx["factors"]]) == 0
    m1, m2 = manifest(out1), manifest(out2)
    assert m1["outputs"] == m2["outputs"]
    for name in m1["outputs"]:
        with open(os.path.join(out1, name), "rb") as fh:
            b1 = fh.read()
        with open(os.path.join(out2, name), "rb") as fh:
            b2 = fh.read()
        assert b1 == b2
    # manifests agree except for the wall time
    m1.pop("wall_time_s"), m2.pop("wall_time_s")
    m1["inputs"] = m2["inputs"] = None  # same content, fixture paths differ
    assert m1 == m2


def test_grid_format_emits_text_dump(files):
    tmp, fx = files
    out = str(tmp / "out_grid")
    assert main(["--out", out, "--format", "grid", "--window=-3..3,-3..3",
                 "decompose", fx["cb"], "--factors", fx["factors"]]) == 0
    m = manifest(out)
    assert "component_00.txt" in m["outputs"]
    text = open(os.path.join(out, "component_00.txt")).read()
    assert len(text.strip().splitlines()) == 7


def test_dim_flag_validates(files):
    tmp, fx = files
    out = str(tmp / "out_dim")
    assert main(["--out", out, "--dim", "3", "act", fx["f"], fx["cb"]]) == 1
    out2 = str(tmp / "out_dim2")
    assert main(["--out", out2, "--dim", "3", "poly", "mul",
                 fx["f"], fx["g"]]) == 1


def _outcome(argv, out):
    """Exit code, result file bytes and manifest (less its wall time) of one
    main call into the fresh directory `out`."""
    code = main(["--out", out] + argv)
    files = {}
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = fh.read()
    if "manifest.json" in files:
        m = json.loads(files.pop("manifest.json"))
        m.pop("wall_time_s")
        files["manifest.json"] = m
    return code, files


def test_consecutive_main_calls_share_no_state(files):
    # main parses with one parser per process; every call must see only its
    # own flags, so each outcome equals that of a call on a fresh parser
    tmp, fx = files
    t2 = write(tmp / "t2.json",
               poly_to_obj(LaurentPoly(2, {(0, 0): 1, (0, -1): 1})))
    runs = [
        ["--window=-4..4,-4..4", "decompose", fx["cb"], "--k", "2",
         "--periodizers", fx["tilepoly"], t2],
        ["--window=-4..4,-4..4", "decompose", fx["cb"],
         "--annihilator", fx["tilepoly"]],
        ["--format", "grid", "--window=-3..3,-3..3", "decompose", fx["cb"],
         "--factors", fx["factors"]],
        ["--window=-3..3,-3..3", "decompose", fx["cb"],
         "--factors", fx["factors"]],
        ["--bound-search", "2", "decompose", fx["cb"], "--k", "x"],
        ["--format", "bogus", "act", fx["f"], fx["cb"]],
        ["act", fx["f"], fx["cb"]],
        ["sparse", "fibers", fx["cb"]],
        ["poly", "mul", fx["f"], fx["g"]],
    ]
    shared = [_outcome(argv, str(tmp / f"shared_{i}"))
              for i, argv in enumerate(runs)]
    assert [code for code, _ in shared] == [0, 0, 0, 0, 1, 1, 0, 1, 0]
    assert any(name.endswith(".txt") for name in shared[2][1])
    assert not any(name.endswith(".txt") for name in shared[3][1])
    fresh = []
    for i, argv in enumerate(runs):
        cli._shared_parser.cache_clear()
        fresh.append(_outcome(argv, str(tmp / f"fresh_{i}")))
    assert shared == fresh
    assert cli._shared_parser() is cli._shared_parser()
    assert cli.build_parser() is not cli.build_parser()


@pytest.mark.parametrize("flag, value, field", [
    ("--bound-search", "0", "search"), ("--bound-period", "-3", "period"),
    ("--kmax", "0", "k_max"), ("--patience", "-1", "patience")])
def test_nonpositive_bounds_are_bad_input(files, flag, value, field):
    # the bounds are built where main reports errors: exit 1, an error
    # manifest naming the field, and the bounds recorded as given
    tmp, fx = files
    out = str(tmp / f"out_{field}")
    argv = ["--out", out, flag, value, "decompose", fx["cb"],
            "--annihilator", fx["tilepoly"]]
    assert main(argv) == 1
    assert os.listdir(out) == ["manifest.json"]
    m = manifest(out)
    assert m["error"] == {
        "type": "PreconditionError", "bound": None,
        "message": f"bound {field} must be at least 1, got {value}"}
    assert m["bounds"] == dict(vars(Bounds()), **{field: int(value)})


def test_bound_defaults_come_from_bounds(files):
    # no bound flag: the manifest records Bounds() and the help text quotes
    # its numbers
    tmp, fx = files
    out = str(tmp / "out_defaults")
    assert main(["--out", out, "act", fx["f"], fx["cb"]]) == 0
    assert manifest(out)["bounds"] == vars(Bounds())
    text = " ".join(cli.build_parser().format_help().split())
    for number in (Bounds().search, Bounds().period, Bounds().k_max,
                   Bounds().patience):
        assert f"(default {number})" in text
