"""Exact integer/rational lattice arithmetic.

Everything here is computed over Python ints and fractions.Fraction, so
membership, rank and coset decisions are error-free.  Integer lattices are
canonicalized through a row-style Hermite normal form: rows are echelonized,
pivots are positive, and entries above a pivot are reduced into [0, pivot).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import add, sub

from .errors import DimensionMismatch, LatticeError

IntVector = tuple  # d-tuple of ints


def as_vector(coords) -> IntVector:
    v = tuple(int(x) for x in coords)
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
    if is_zero_vector(v):
        raise LatticeError("the zero vector has no primitive form")
    g = 0
    for a in v:
        g = gcd(g, abs(a))
    w = tuple(a // g for a in v)
    for a in w:
        if a:
            return w if a > 0 else vneg(w)
    raise AssertionError("unreachable")


def parallel(u, v) -> bool:
    """True when u and v span the same rational line (both nonzero)."""
    return primitive(u) == primitive(v)


# ---------------------------------------------------------------------------
# rational elimination

def _rref(rows):
    """Reduced row echelon form over the rationals.

    Returns (reduced nonzero rows, pivot column indices).  Input rows are a
    list of sequences of Fractions/ints; they are not modified.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][col]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    return mat[:r], pivots


def rank_rational(vectors) -> int:
    """Rank over the rationals of a family of equal-dimension vectors."""
    vecs = list(vectors)
    if not vecs:
        return 0
    check_same_dim(*vecs)
    reduced, _ = _rref(vecs)
    return len(reduced)


def rational_nullspace_vector(columns):
    """A nonzero rational kernel vector of the matrix with given columns.

    Returns a tuple of Fractions x with sum_j x_j * columns[j] = 0, or None
    when the columns are independent.
    """
    n = len(columns)
    dim = len(columns[0])
    rows = [[Fraction(columns[j][i]) for j in range(n)] for i in range(dim)]
    reduced, pivots = _rref(rows)
    free = [j for j in range(n) if j not in pivots]
    if not free:
        return None
    j0 = free[0]
    sol = [Fraction(0)] * n
    sol[j0] = Fraction(1)
    for row, col in zip(reduced, pivots):
        sol[col] = -row[j0]
    return tuple(sol)


def solve_rational(columns, rhs):
    """Solve sum_i a_i * columns[i] = rhs over the rationals.

    Returns a tuple of Fractions or None when the system is inconsistent.
    The columns must be linearly independent (unique solution on success).
    """
    n = len(columns)
    dim = len(rhs)
    aug = [[Fraction(columns[j][i]) for j in range(n)] + [Fraction(rhs[i])]
           for i in range(dim)]
    reduced, pivots = _rref(aug)
    sol = [Fraction(0)] * n
    for row, col in zip(reduced, pivots):
        if col == n:
            return None  # pivot in the rhs column: inconsistent
        sol[col] = row[n]
    return tuple(sol)


# ---------------------------------------------------------------------------
# integer elimination (Hermite normal form)

def hnf_rows(vectors, dim):
    """Row-style Hermite normal form of the integer span of `vectors`.

    Result rows are echelonized with positive pivots; entries above each
    pivot lie in [0, pivot).  Zero rows are dropped, so the result is a
    canonical basis of the (possibly non-full-rank) lattice.
    """
    mat = [list(map(int, v)) for v in vectors if not is_zero_vector(v)]
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


def in_lattice(x, rows) -> bool:
    return is_zero_vector(hnf_reduce(x, rows))


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


def order_modulo(v, rows, bound):
    """Smallest k in [1, bound] with k*v inside the lattice, else None."""
    acc = zero_vector(len(v))
    for k in range(1, bound + 1):
        acc = vadd(acc, v)
        if in_lattice(acc, rows):
            return k
    return None


def lattice_intersection(gens1, gens2, dim):
    """HNF basis of the intersection of two integer lattices.

    The HNF rows of [G1; -G2 | I] that vanish on the first dim columns
    span the integer solutions (a, b) of a*G1 = b*G2; the points a*G1 span
    the intersection.
    """
    gens1 = list(gens1)
    rows = gens1 + [vneg(h) for h in gens2]
    m = len(rows)
    aug = [tuple(g) + tuple(int(i == j) for j in range(m))
           for i, g in enumerate(rows)]
    inter = []
    for row in hnf_rows(aug, dim + m):
        if is_zero_vector(row[:dim]):
            vec = zero_vector(dim)
            for a, g in zip(row[dim:], gens1):
                if a:
                    vec = vadd(vec, vscale(a, g))
            inter.append(vec)
    return hnf_rows(inter, dim)


# ---------------------------------------------------------------------------
# rational subspaces

def _parse_rational(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if "/" in x:
            p, q = x.split("/", 1)
            return Fraction(int(p), int(q))
        return Fraction(int(x))
    raise LatticeError(f"not a rational scalar: {x!r}")


class SubspaceBasis:
    """A linear subspace of Q^d given by an independent rational basis.

    The empty basis denotes the trivial subspace {0}.  Membership tests and
    rank computations are exact.
    """

    __slots__ = ("dim", "basis", "_rref")

    def __init__(self, dim, basis=()):
        self.dim = int(dim)
        rows = [tuple(_parse_rational(x) for x in row) for row in basis]
        for row in rows:
            if len(row) != self.dim:
                raise DimensionMismatch("basis vector of wrong dimension")
        reduced, pivots = _rref(rows)
        if len(reduced) != len(rows):
            raise LatticeError("subspace basis is linearly dependent")
        self.basis = tuple(rows)
        self._rref = tuple(tuple(r) for r in reduced)

    @classmethod
    def trivial(cls, dim):
        return cls(dim, ())

    @property
    def rank(self):
        return len(self.basis)

    def canonical_key(self):
        return (self.dim, self._rref)

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
        res = [Fraction(x) for x in v]
        for row in self._rref:
            piv = next(i for i, a in enumerate(row) if a)
            if res[piv]:
                f = res[piv] / row[piv]
                res = [a - f * b for a, b in zip(res, row)]
        return all(a == 0 for a in res)

    def integer_rows(self):
        """The basis rescaled to primitive integer vectors (same span)."""
        out = []
        for row in self.basis:
            denom = lcm(*(x.denominator for x in row))
            vec = tuple(int(x * denom) for x in row)
            out.append(primitive(vec))
        return tuple(out)


def span_meets_trivially(u, v, V: SubspaceBasis) -> bool:
    """True iff span{u, v} intersects V only at the origin."""
    check_same_dim(u, v)
    if len(u) != V.dim:
        raise DimensionMismatch("vector/subspace dimension mismatch")
    if is_zero_vector(u) or is_zero_vector(v):
        raise LatticeError("span_meets_trivially needs nonzero vectors")
    pair_rank = rank_rational([u, v])
    total = rank_rational(list(V.basis) + [tuple(Fraction(x) for x in u),
                                           tuple(Fraction(x) for x in v)])
    return total == V.rank + pair_rank


# ---------------------------------------------------------------------------
# coset systems

class CosetSystem:
    """Cosets of Z^d modulo the integer span of a generator tuple.

    Construction checks the unique-expression property (the generators must
    be independent over Q).  The representative of a point is its HNF
    residue, which is idempotent and independent of query order; points
    outside the span form their own cosets keyed by that residue.
    """

    __slots__ = ("dim", "generators", "_hnf")

    def __init__(self, dim, generators):
        self.dim = int(dim)
        gens = tuple(as_vector(g) for g in generators)
        if not gens:
            raise LatticeError("a coset system needs at least one generator")
        for g in gens:
            if len(g) != self.dim:
                raise DimensionMismatch("generator of wrong dimension")
            if is_zero_vector(g):
                raise LatticeError("zero generator")
        if rank_rational(gens) != len(gens):
            raise LatticeError(
                "generators are dependent: coset coordinates would not be unique")
        self.generators = gens
        self._hnf = hnf_rows(gens, self.dim)

    def representative(self, x) -> IntVector:
        return hnf_reduce(x, self._hnf)
