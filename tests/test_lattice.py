import random
from fractions import Fraction
from itertools import product
from operator import mul

import pytest
from hypothesis import given, strategies as st

from perdec.errors import DimensionMismatch, LatticeError
from perdec.lattice import (CosetSystem, SubspaceBasis, as_vector, hnf_reduce,
                            hnf_rows, hnf_with_coordinates,
                            lattice_intersection, primitive, rank_rational,
                            span_meets_trivially, vadd, vscale, vsub)

from helpers import _fraction_rref, in_lattice

vectors = st.lists(st.integers(-9, 9), min_size=2, max_size=3).map(tuple)


def test_rank_examples():
    assert rank_rational([(1, 0), (0, 1)]) == 2
    assert rank_rational([(1, 2), (2, 4)]) == 1
    assert rank_rational([]) == 0


def test_rank_mixed_dimension_rejected():
    with pytest.raises(DimensionMismatch):
        rank_rational([(1, 0), (1, 0, 0)])


def test_rank_rational_entries_rejected():
    # a Fraction is not truncated into the integer elimination
    with pytest.raises(LatticeError):
        rank_rational([(Fraction(1, 2), 0), (0, Fraction(1, 3))])


def test_non_integer_entries_raise_instead_of_truncating():
    half, three_halves = Fraction(1, 2), Fraction(3, 2)
    for build in (lambda: hnf_rows([(half, 0), (0, three_halves)], 2),
                  lambda: lattice_intersection([(half, 0), (0, 1)],
                                               [(1, 0), (0, 1)], 2),
                  lambda: as_vector([three_halves, 1]),
                  lambda: CosetSystem(2, [(three_halves, 0), (0, 1)])):
        with pytest.raises(LatticeError, match="non-integer entry"):
            build()


def test_integral_fractions_read_as_ints():
    two = Fraction(4, 2)
    assert hnf_rows([(two, 0), (0, 3)], 2) == hnf_rows([(2, 0), (0, 3)], 2) \
        == ((2, 0), (0, 3))
    assert as_vector([two, Fraction(-3)]) == (2, -3)
    assert set(map(type, as_vector([two, 1]))) == {int}
    assert lattice_intersection([(two, 0), (0, 1)], [(1, 0), (0, 3)], 2) \
        == ((2, 0), (0, 3))
    assert rank_rational([(two, 0), (1, 0)]) == 1
    assert CosetSystem(2, [(two, 0), (0, 1)]).generators == ((2, 0), (0, 1))


def test_primitive_examples():
    assert primitive((2, -4)) == (1, -2)
    assert primitive((0, -3)) == (0, 1)
    assert primitive((5, 7)) == (5, 7)
    with pytest.raises(LatticeError):
        primitive((0, 0))


@given(vectors, st.integers(-5, 5).filter(bool))
def test_primitive_scale_invariant(v, k):
    if any(v):
        assert primitive(vscale(k, v)) == primitive(v)


def test_span_meets_trivially_examples():
    V = SubspaceBasis(3, [(0, 0, 1)])
    assert span_meets_trivially((1, 0, 0), (0, 1, 0), V)
    # (1,1) = u + v lies in both spans
    assert not span_meets_trivially((1, 0), (0, 1), SubspaceBasis(2, [(1, 1)]))
    assert span_meets_trivially((3, 5), (2, -1), SubspaceBasis.trivial(2))


def test_span_meets_trivially_symmetric_and_scale_invariant():
    rng = random.Random(7)
    V = SubspaceBasis(3, [(1, 1, 0)])
    for _ in range(50):
        u = tuple(rng.randint(-4, 4) for _ in range(3))
        v = tuple(rng.randint(-4, 4) for _ in range(3))
        if not any(u) or not any(v):
            continue
        a = span_meets_trivially(u, v, V)
        assert a == span_meets_trivially(v, u, V)
        assert a == span_meets_trivially(vscale(3, u), v, V)


def test_subspace_membership():
    V = SubspaceBasis(3, [(1, 0, 1), (0, 2, 0)])
    assert V.contains((2, 3, 2))
    assert not V.contains((1, 0, 0))
    assert V.contains((0, 0, 0))
    with pytest.raises(LatticeError):
        SubspaceBasis(2, [(1, 1), (2, 2)])


def test_subspace_basis_takes_integer_vectors_only():
    with pytest.raises(LatticeError):
        SubspaceBasis(2, [(Fraction(1, 2), 1)])
    with pytest.raises(LatticeError):
        SubspaceBasis(2, [("1/2", 1)])
    assert SubspaceBasis(2, [(2, 4)]).integer_rows() == ((1, 2),)
    # an integral Fraction is an integer, as for every lattice entry
    integral = SubspaceBasis(2, [(Fraction(2), 0)])
    assert integral == SubspaceBasis(2, [(1, 0)])
    assert integral.basis == ((2, 0),) and type(integral.basis[0][0]) is int


def test_subspace_canonical_key_ignores_basis_choice():
    a = SubspaceBasis(3, [(1, 1, 0), (0, 0, 1)])
    b = SubspaceBasis(3, [(2, 2, 2), (0, 0, 5)])
    assert a == b
    assert hash(a) == hash(b)


def _random_family(rng, dim):
    """Up to dim + 2 vectors, zero vectors and integer combinations of
    earlier ones mixed in."""
    vecs = []
    for _ in range(rng.randint(0, dim + 2)):
        kind = rng.random()
        if kind < 0.15:
            vecs.append((0,) * dim)
        elif kind < 0.4 and vecs:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            u, v = rng.choice(vecs), rng.choice(vecs)
            vecs.append(vadd(vscale(a, u), vscale(b, v)))
        else:
            vecs.append(tuple(rng.randint(-4, 4) for _ in range(dim)))
    return vecs


def _rref_rank(vecs):
    return len(_fraction_rref(vecs)[0])


def _random_subspace(rng, dim, count):
    """An independent basis of `count` vectors, kept by the RREF rank."""
    basis = []
    while len(basis) < count:
        v = tuple(rng.randint(-3, 3) for _ in range(dim))
        if _rref_rank(basis + [v]) == len(basis) + 1:
            basis.append(v)
    return basis


def test_rank_matches_rational_elimination():
    rng = random.Random(24)
    dependent = 0
    for _ in range(2000):
        vecs = _random_family(rng, rng.randint(1, 4))
        assert rank_rational(vecs) == _rref_rank(vecs), vecs
        dependent += _rref_rank(vecs) < len(vecs)
    assert dependent > 500


def test_subspace_membership_matches_rational_elimination():
    rng = random.Random(25)
    for _ in range(1500):
        dim = rng.randint(1, 4)
        basis = _random_subspace(rng, dim, rng.randint(0, dim))
        V = SubspaceBasis(dim, basis)
        if rng.random() < 0.4 and basis:  # an integer point of V
            v = (0,) * dim
            for b in basis:
                v = vadd(v, vscale(rng.randint(-3, 3), b))
        else:
            v = tuple(rng.randint(-3, 3) for _ in range(dim))
        member = _rref_rank(basis + [v]) == len(basis)
        assert V.contains(v) == member, (basis, v)
        assert V.contains([Fraction(x, 3) for x in v]) == member
        # a dependent basis is rejected, as by the rank
        if basis:
            with pytest.raises(LatticeError):
                SubspaceBasis(dim, basis + [rng.choice(basis)])


def test_subspace_keys_equal_exactly_when_rrefs_do():
    rng = random.Random(26)
    equal = 0
    for _ in range(1500):
        dim = rng.randint(1, 3)
        count = rng.randint(0, dim)
        a = _random_subspace(rng, dim, count)
        if rng.random() < 0.5:  # another basis of the same span
            b = []
            while _rref_rank(b) < count:
                b = [tuple(map(sum, zip(*(vscale(rng.randint(-2, 2), v)
                                          for v in a))))
                     for _ in range(count)]
        else:
            b = _random_subspace(rng, dim, count)
        same = _fraction_rref(a) == _fraction_rref(b)
        Va, Vb = SubspaceBasis(dim, a), SubspaceBasis(dim, b)
        assert (Va.canonical_key() == Vb.canonical_key()) == same, (a, b)
        assert (Va == Vb) == same
        if same:
            assert hash(Va) == hash(Vb)
        equal += same
    assert equal > 500


def test_subspace_normals_are_hnf_and_orthogonal():
    rng = random.Random(27)
    for _ in range(1000):
        dim = rng.randint(1, 4)
        basis = _random_subspace(rng, dim, rng.randint(0, dim))
        normals = SubspaceBasis(dim, basis)._normals
        assert normals == hnf_rows(normals, dim)
        assert len(normals) == dim - len(basis)
        for n in normals:
            assert not any(sum(map(mul, n, b)) for b in basis)


def test_hnf_reduce_idempotent_and_in_span():
    rng = random.Random(3)
    for _ in range(100):
        gens = [tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(2)]
        rows = hnf_rows(gens, 3)
        x = tuple(rng.randint(-20, 20) for _ in range(3))
        r = hnf_reduce(x, rows)
        assert hnf_reduce(r, rows) == r
        assert in_lattice(vsub(x, r), rows)


def test_coset_roundtrip_random():
    rng = random.Random(11)
    for _ in range(200):
        dim = rng.choice((2, 3, 4))
        count = rng.randint(1, dim)  # partial rank included
        gens = []
        while len(gens) < count:
            g = tuple(rng.randint(-4, 4) for _ in range(dim))
            if any(g) and rank_rational(gens + [g]) == len(gens) + 1:
                gens.append(g)
        cs = CosetSystem(dim, gens)
        x = tuple(rng.randint(-15, 15) for _ in range(dim))
        z, coords = cs.reduce(x)
        # the coordinates rebuild x from its representative exactly
        rebuilt = z
        for c, g in zip(coords, gens):
            rebuilt = vadd(rebuilt, vscale(c, g))
        assert rebuilt == x
        assert z == hnf_reduce(x, hnf_rows(gens, dim))
        # the representative is idempotent, with zero coordinates, and
        # constant on the coset, where the coordinates move with the shift
        assert cs.reduce(z) == (z, (0,) * count)
        shifted = vadd(x, vscale(3, gens[0]))
        assert cs.reduce(shifted) == (z, (coords[0] + 3,) + coords[1:])


def test_coset_dependent_generators_rejected():
    with pytest.raises(LatticeError):
        CosetSystem(2, [(1, 0), (2, 0)])


def test_coset_partial_rank_points_outside_span():
    cs = CosetSystem(3, [(1, 0, 0), (0, 1, 0)])
    # points outside the span form their own cosets keyed by the residue
    assert cs.reduce((0, 0, 5)) == ((0, 0, 5), (0, 0))
    assert cs.reduce((4, -1, 5)) == ((0, 0, 5), (4, -1))


def test_hnf_with_coordinates_left_part_and_coordinates():
    rng = random.Random(5)
    for _ in range(200):
        dim = rng.choice((2, 3, 4))
        gens = [tuple(rng.randint(-5, 5) for _ in range(dim))
                for _ in range(rng.randint(1, dim + 1))]
        rows = hnf_with_coordinates(gens, dim)
        # the left parts are the HNF of the span, the zero rows the
        # integer relations; every row is its coordinates applied to gens
        assert tuple(r[:dim] for r in rows if any(r[:dim])) == \
            hnf_rows(gens, dim)
        assert sum(not any(r[:dim]) for r in rows) == \
            len(gens) - rank_rational(gens)
        for row in rows:
            combo = (0,) * dim
            for a, g in zip(row[dim:], gens):
                combo = vadd(combo, vscale(a, g))
            assert combo == row[:dim]


def test_lattice_intersection():
    a = hnf_rows([(2, 0), (0, 1)], 2)
    b = hnf_rows([(1, 0), (0, 2)], 2)
    inter = lattice_intersection(a, b, 2)
    assert inter == ((2, 0), (0, 2))
    # intersection with itself
    assert lattice_intersection(a, a, 2) == a


def test_lattice_intersection_diagonal():
    a = hnf_rows([(1, 1), (0, 2)], 2)   # checkerboard lattice
    b = hnf_rows([(1, 0), (0, 3)], 2)
    inter = lattice_intersection(a, b, 2)
    for v in ((3, 3), (1, 1)):
        both = in_lattice(v, a) and in_lattice(v, b)
        assert in_lattice(v, inter) == both


def _random_generators(rng, dim):
    """Up to dim + 1 generators: dependent, rank-deficient or negative."""
    kind = rng.choice(("random", "dependent", "deficient"))
    gens = [tuple(rng.randint(-4, 4) for _ in range(dim))
            for _ in range(rng.randint(1, dim + 1))]
    if kind == "dependent":
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        gens.append(tuple(a * x + b * y for x, y in zip(gens[0], gens[-1])))
    elif kind == "deficient":
        # every generator on one line: rank at most one
        gens = [tuple(rng.randint(-3, 3) * x for x in gens[0])
                for _ in range(rng.randint(1, 3))]
    return gens


@pytest.mark.parametrize("dim, radius", [(1, 40), (2, 9), (3, 4)])
def test_lattice_intersection_matches_membership_in_both(dim, radius):
    # a point of the box lies in the intersection exactly when it lies in
    # both lattices
    rng = random.Random(70 + dim)
    cases = [([(-2,) * dim, (3,) * dim], [(4,) * dim]),
             ([(0,) * dim], [(1,) * dim]),
             ([(2,) * dim, (-4,) * dim], [(-3,) * dim, (6,) * dim])]
    cases += [(_random_generators(rng, dim), _random_generators(rng, dim))
              for _ in range(40)]
    box = list(product(range(-radius, radius + 1), repeat=dim))
    nontrivial = 0
    for g1, g2 in cases:
        inter = lattice_intersection(g1, g2, dim)
        assert inter == hnf_rows(inter, dim)  # canonical HNF rows
        a, b = hnf_rows(g1, dim), hnf_rows(g2, dim)
        for x in box:
            both = in_lattice(x, a) and in_lattice(x, b)
            assert in_lattice(x, inter) == both, (g1, g2, x)
            nontrivial += both and any(x)
    assert nontrivial > 100


@given(st.lists(vectors.filter(lambda v: len(v) == 2), min_size=1,
                max_size=3))
def test_hnf_rows_span_preserved(gens):
    rows = hnf_rows(gens, 2)
    for g in gens:
        assert in_lattice(g, rows) or not any(g)
    for r in rows:
        assert in_lattice(r, hnf_rows([g for g in gens if any(g)], 2))
