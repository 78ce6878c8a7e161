"""Sparse multivariate Laurent polynomials over the integers.

A polynomial is a finite map from integer exponent vectors to nonzero
integer coefficients; the zero polynomial is the empty map.  Coefficients
are Python ints, so products of many factors never overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, LatticeError
from .lattice import (IntVector, SubspaceBasis, as_int, as_vector,
                      is_zero_vector, parallel, primitive, vadd, vsub)


class LaurentPoly:
    """Immutable sparse Laurent polynomial in `dim` variables."""

    __slots__ = ("dim", "_terms")

    def __init__(self, dim, terms=None):
        self.dim = int(dim)
        if self.dim < 1:
            raise LatticeError("polynomials need dimension >= 1")
        clean = {}
        for exp, coef in (terms or {}).items():
            exp = tuple(map(as_int, exp))
            coef = as_int(coef)
            if len(exp) != self.dim:
                raise DimensionMismatch(
                    f"exponent {exp} has wrong length for dim {self.dim}")
            if coef == 0:
                continue
            if exp in clean:
                raise LatticeError(f"duplicate exponent {exp}")
            clean[exp] = coef
        self._terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dim):
        return cls(dim, {})

    @classmethod
    def constant(cls, dim, value):
        return cls.monomial((0,) * dim, value)

    @classmethod
    def monomial(cls, exp, coef=1):
        exp = tuple(exp)
        return cls(len(exp), {exp: coef})

    # -- inspection ----------------------------------------------------------

    def terms(self):
        """Term list as (exponent, coefficient), sorted lexicographically."""
        return sorted(self._terms.items())

    def support(self):
        return sorted(self._terms)

    def coefficient(self, exp):
        return self._terms.get(tuple(exp), 0)

    def is_zero(self):
        return not self._terms

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly) and self.dim == other.dim
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.dim, frozenset(self._terms.items())))

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for exp, coef in self.terms():
            mono = "*".join(
                f"X{i + 1}^{e}" if e != 1 else f"X{i + 1}"
                for i, e in enumerate(exp) if e)
            if not mono:
                parts.append(str(coef))
            elif coef == 1:
                parts.append(mono)
            elif coef == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{coef}*{mono}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    # -- ring structure ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            if other.dim != self.dim:
                raise DimensionMismatch("polynomials of different dimension")
            return other
        if isinstance(other, int):
            return LaurentPoly.constant(self.dim, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for exp, coef in other._terms.items():
            s = out.get(exp, 0) + coef
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return LaurentPoly(self.dim, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.dim, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly(self.dim,
                               {e: other * c for e, c in self._terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = vadd(e1, e2)
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return LaurentPoly(self.dim, out)

    __rmul__ = __mul__


def poly_product(polys, dim=None):
    """Product of a polynomial sequence (1 on empty input with known dim)."""
    polys = list(polys)
    if not polys:
        if dim is None:
            raise LatticeError("empty product needs an explicit dimension")
        return LaurentPoly.constant(dim, 1)
    acc = polys[0]
    for f in polys[1:]:
        acc = acc * f
    return acc


def difference_poly(v: IntVector) -> LaurentPoly:
    """X^v - 1; annihilates exactly the v-periodic functions."""
    v = as_vector(v)
    if is_zero_vector(v):
        raise LatticeError("difference polynomial of the zero vector")
    return LaurentPoly(len(v), {v: 1, (0,) * len(v): -1})


@dataclass(frozen=True)
class LineDescriptor:
    """Primitive sign-normalized direction plus the lex-least support point."""
    direction: IntVector
    anchor: IntVector


def line_direction(f: LaurentPoly):
    """Direction of a line polynomial, or None.

    A line polynomial has at least two support points, all on one rational
    line.  Monomials and the zero polynomial are not line polynomials.
    """
    supp = f.support()
    if len(supp) < 2:
        return None
    anchor = supp[0]
    w = primitive(vsub(supp[1], anchor))
    pivot = next(i for i, a in enumerate(w) if a)
    for p in supp[2:]:
        d = vsub(p, anchor)
        t, r = divmod(d[pivot], w[pivot])
        if r or d != tuple(t * a for a in w):
            return None
    return LineDescriptor(direction=w, anchor=anchor)


def line_degree(f: LaurentPoly):
    """(direction, step offsets) of a line polynomial's support.

    Offsets are the integer parameters t with support = {anchor + t*w},
    sorted ascending starting at 0.
    """
    desc = line_direction(f)
    if desc is None:
        return None
    pivot = next(i for i, a in enumerate(desc.direction) if a)
    offs = sorted((p[pivot] - desc.anchor[pivot]) // desc.direction[pivot]
                  for p in f.support())
    return desc, offs


def support_in_subspace(f: LaurentPoly, V: SubspaceBasis):
    """Exact set supp(f) n V, decided over the rationals."""
    if f.dim != V.dim:
        raise DimensionMismatch("polynomial/subspace dimension mismatch")
    return {e for e in f.support() if V.contains(e)}


def non_parallel_directions(polys):
    """Directions of a family of line polynomials; errors on a parallel pair."""
    descs = []
    for f in polys:
        d = line_direction(f)
        if d is None:
            raise LatticeError(f"not a line polynomial: {f!r}")
        descs.append(d.direction)
    for i in range(len(descs)):
        for j in range(i + 1, len(descs)):
            if parallel(descs[i], descs[j]):
                raise LatticeError(
                    f"parallel directions {descs[i]} and {descs[j]}")
    return descs
