"""Exact integer lattice arithmetic.

Everything here is computed over Python ints, so membership, rank and coset
decisions are error-free.  Integer lattices are canonicalized through a
row-style Hermite normal form: rows are echelonized, pivots are positive,
and entries above a pivot are reduced into [0, pivot).  Every question is
answered by one integer elimination, the HNF of [G | I]
(`hnf_with_coordinates`): rank, coset coordinates, integer relations among
generators, lattice intersections, and a subspace's integer normals, which
decide its membership and key it.
"""

from __future__ import annotations

from itertools import product
from math import gcd
from operator import add, mul, sub

from .errors import DimensionMismatch, LatticeError

IntVector = tuple  # d-tuple of ints


def as_int(x) -> int:
    """x as an int when it is integral; any other value, a non-number
    included, raises LatticeError naming it instead of being truncated."""
    try:
        if int(x) == x:
            return int(x)
    except (TypeError, ValueError, ArithmeticError):
        pass
    raise LatticeError(f"non-integer entry {x}: lattices are integer")


def as_vector(coords) -> IntVector:
    v = tuple(map(as_int, coords))
    if not v:
        raise LatticeError("vectors must have dimension >= 1")
    return v


def check_same_dim(*vectors):
    dims = {len(v) for v in vectors}
    if len(dims) > 1:
        raise DimensionMismatch(f"mixed dimensions: {sorted(dims)}")


def vadd(u, v):
    return tuple(map(add, u, v))


def vsub(u, v):
    return tuple(map(sub, u, v))


def vneg(v):
    return tuple(-a for a in v)


def vscale(k, v):
    return tuple(k * a for a in v)


def is_zero_vector(v):
    return all(a == 0 for a in v)


def zero_vector(dim):
    return (0,) * dim


def primitive(v: IntVector) -> IntVector:
    """v divided by the gcd of its coordinates, first nonzero coordinate positive."""
    g = gcd(*v)
    if not g:
        raise LatticeError("the zero vector has no primitive form")
    if next(a for a in v if a) < 0:
        g = -g
    return tuple(a // g for a in v)


def parallel(u, v) -> bool:
    """True when u and v span the same rational line (both nonzero)."""
    return primitive(u) == primitive(v)


# ---------------------------------------------------------------------------
# integer elimination (Hermite normal form)

def hnf_rows(vectors, dim):
    """Row-style Hermite normal form of the integer span of `vectors`.

    Result rows are echelonized with positive pivots; entries above each
    pivot lie in [0, pivot).  Zero rows are dropped, so the result is a
    canonical basis of the (possibly non-full-rank) lattice.
    """
    mat = [list(map(as_int, v)) for v in vectors if not is_zero_vector(v)]
    r = 0
    for col in range(dim):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            while mat[i][col] != 0:
                if abs(mat[i][col]) < abs(mat[r][col]):
                    mat[r], mat[i] = mat[i], mat[r]
                q = mat[i][col] // mat[r][col]
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
        if mat[r][col] < 0:
            mat[r] = [-x for x in mat[r]]
        for i in range(r):
            q = mat[i][col] // mat[r][col]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return tuple(tuple(row) for row in mat[:r])


def rank_rational(vectors) -> int:
    """Rank over the rationals of a family of equal-dimension integer
    vectors."""
    vecs = list(vectors)
    if not vecs:
        return 0
    check_same_dim(*vecs)
    return len(hnf_rows(vecs, len(vecs[0])))


def hnf_reduce(x, rows):
    """Canonical representative of x modulo the integer span of HNF rows."""
    res = list(x)
    for row in rows:
        for j, v in enumerate(row):
            if v:
                break
        q = res[j] // v
        if q:
            res = [a - q * b for a, b in zip(res, row)]
    return tuple(res)


def hnf_diagonal(rows, dim):
    """Pivot sizes of a full-rank HNF basis (raises when rank < dim)."""
    if len(rows) != dim:
        raise LatticeError("lattice is not full rank")
    return tuple(rows[i][i] for i in range(dim))


def lattice_determinant(rows, dim) -> int:
    d = 1
    for p in hnf_diagonal(rows, dim):
        d *= p
    return d


def fundamental_residues(rows, dim):
    """All canonical residues of a full-rank lattice, in lexicographic order."""
    diag = hnf_diagonal(rows, dim)
    return product(*(range(p) for p in diag))


def hnf_with_coordinates(gens, dim):
    """The HNF rows of [G | I], G the matrix with rows `gens`.

    The left dim entries of the rows with a nonzero left part are
    hnf_rows(gens, dim), as every pivot of those rows lies there; the right
    entries give each row as an integer combination of the generators, and
    the rows with a zero left part span the integer relations among them
    (Cohen, A Course in Computational Algebraic Number Theory, 2.4).
    """
    n = len(gens)
    return hnf_rows([tuple(g) + tuple(int(i == j) for j in range(n))
                     for i, g in enumerate(gens)], dim + n)


def lattice_intersection(gens1, gens2, dim):
    """HNF basis of the intersection of two integer lattices.

    The integer relations a*G1 - b*G2 = 0 among the rows of G1 and -G2 give
    the points a*G1, which span the intersection.
    """
    gens1 = list(gens1)
    rows = hnf_with_coordinates(gens1 + [vneg(h) for h in gens2], dim)
    return hnf_rows([[sum(map(mul, row[dim:], col)) for col in zip(*gens1)]
                     for row in rows if is_zero_vector(row[:dim])], dim)


# ---------------------------------------------------------------------------
# subspaces

class SubspaceBasis:
    """A linear subspace V of Q^d given by an independent integer basis.

    The empty basis denotes the trivial subspace {0}.  V is kept as its
    normals, the HNF basis of the integer vectors orthogonal to V: the right
    parts of the zero-left rows of [B^T | I], already in HNF.  They depend
    on V only, so they key it, and membership is exact.
    """

    __slots__ = ("dim", "basis", "_normals")

    def __init__(self, dim, basis=()):
        self.dim = int(dim)
        rows = [tuple(map(as_int, row)) for row in basis]
        for row in rows:
            if len(row) != self.dim:
                raise DimensionMismatch("basis vector of wrong dimension")
        r = len(rows)
        self._normals = tuple(
            row[r:] for row in hnf_with_coordinates(
                list(zip(*rows)) or [()] * self.dim, r)
            if is_zero_vector(row[:r]))
        if len(self._normals) != self.dim - r:
            raise LatticeError("subspace basis is linearly dependent")
        self.basis = tuple(rows)

    @classmethod
    def trivial(cls, dim):
        return cls(dim, ())

    @property
    def rank(self):
        return len(self.basis)

    def canonical_key(self):
        return (self.dim, self._normals)

    def __eq__(self, other):
        return (isinstance(other, SubspaceBasis)
                and self.canonical_key() == other.canonical_key())

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return f"SubspaceBasis(dim={self.dim}, rank={self.rank})"

    def contains(self, v) -> bool:
        """Exact membership of an integer or rational vector."""
        if len(v) != self.dim:
            raise DimensionMismatch("vector/subspace dimension mismatch")
        return not any(sum(map(mul, n, v)) for n in self._normals)

    def integer_rows(self):
        """The basis as primitive integer vectors (same span)."""
        return tuple(map(primitive, self.basis))


def span_meets_trivially(u, v, V: SubspaceBasis) -> bool:
    """True iff span{u, v} intersects V only at the origin."""
    check_same_dim(u, v)
    if len(u) != V.dim:
        raise DimensionMismatch("vector/subspace dimension mismatch")
    if is_zero_vector(u) or is_zero_vector(v):
        raise LatticeError("span_meets_trivially needs nonzero vectors")
    pair_rank = rank_rational([u, v])
    total = rank_rational(list(V.basis) + [u, v])
    return total == V.rank + pair_rank


# ---------------------------------------------------------------------------
# coset systems

class CosetSystem:
    """Cosets of Z^d modulo the integer span of a generator tuple.

    Construction checks the unique-expression property (the generators must
    be independent over Q: no HNF row of [G | I] has a zero left part).
    `reduce` gives a point's representative, its HNF residue, which is
    idempotent and independent of query order, and its coset coordinates;
    points outside the span form their own cosets keyed by that residue.
    """

    __slots__ = ("dim", "generators", "_rows", "_pad")

    def __init__(self, dim, generators):
        self.dim = int(dim)
        gens = tuple(as_vector(g) for g in generators)
        if not gens:
            raise LatticeError("a coset system needs at least one generator")
        for g in gens:
            if len(g) != self.dim:
                raise DimensionMismatch("generator of wrong dimension")
        # the HNF rows (h, u) of [G | I] kept as (h, -u), so that reducing
        # (x, 0) leaves (representative, coordinates)
        self._rows = tuple(r[:self.dim] + vneg(r[self.dim:])
                           for r in hnf_with_coordinates(gens, self.dim))
        if any(is_zero_vector(row[:self.dim]) for row in self._rows):
            raise LatticeError(
                "generators are dependent: coset coordinates would not be unique")
        self.generators = gens
        self._pad = (0,) * len(gens)

    def reduce(self, x):
        """(representative, coordinates) of x from one hnf_reduce of (x, 0):
        x = representative + sum_j coordinates[j] * generators[j] exactly."""
        res = hnf_reduce([*x, *self._pad], self._rows)
        return res[:self.dim], res[self.dim:]
