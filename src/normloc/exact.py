"""Exact integer linear algebra.

Everything in this package runs over Z and Q.  Vectors are tuples of ints
(``IVec``) or Fractions (``QVec``); matrices are tuples of row tuples.  No
floats anywhere: all comparisons are exact.

Number types follow one rule: integers flow between layers.  Rays, lines,
normals and DD generators are integer vectors, and every rational-to-integer
step goes through :func:`primitive`.  ``Fraction`` appears only in the right
hand sides of halfspace descriptions, in vertex coordinates and at I/O;
this module reads Fractions (:func:`as_int`, :func:`primitive`) but builds
none.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from .errors import NormlocError, ZeroVector

IVec = tuple[int, ...]
QVec = tuple[Fraction, ...]
IMat = tuple[IVec, ...]


def dot(a, b):
    return sum(map(mul, a, b))


def as_int(x) -> int:
    """``x`` as an int when it is integral; NormlocError otherwise.

    Accepts ints, integral floats and Fractions (``4.0``) and integer
    strings (``"4"``).  Anything with a fractional part, a bool, inf or nan
    is rejected instead of truncated.
    """
    if isinstance(x, str):
        try:
            return int(x)
        except ValueError:
            pass
    elif isinstance(x, (int, float, Fraction)) and not isinstance(x, bool):
        try:
            n = int(x)
        except (OverflowError, ValueError):
            pass
        else:
            if n == x:
                return n
    raise NormlocError(f"not an integer: {x!r}")


def positive_int(x, name: str) -> int:
    """``x`` when it is an int >= 1; NormlocError otherwise, for bools too
    (as in ``as_int``), so a scale or sweep bound is never True or 2.0."""
    if isinstance(x, int) and not isinstance(x, bool) and x >= 1:
        return x
    raise NormlocError(f"{name} must be a positive integer: {x}")


def primitive(v) -> IVec:
    """Shortest integer vector with the same direction as ``v``.

    Accepts int or Fraction entries.  Int entries take one gcd; a Fraction
    entry makes that gcd raise TypeError, and then the denominators are
    cleared in integer arithmetic first.  Raises ZeroVector on the zero
    vector.
    """
    w = v
    try:
        g = gcd(*w)
    except TypeError:  # a Fraction entry: clear the denominators first
        den = lcm(*(x.denominator for x in v))
        w = [x.numerator * (den // x.denominator) for x in v]
        g = gcd(*w)
    if not g:
        raise ZeroVector(f"no primitive vector for {tuple(v)}")
    return tuple([x // g for x in w])


def canonical_sign(v: IVec) -> IVec:
    """Flip ``v`` so its first nonzero entry is positive (key use only)."""
    for x in v:
        if x > 0:
            return tuple(v)
        if x < 0:
            return tuple(-y for y in v)
    return tuple(v)


@lru_cache(maxsize=64)
def identity_matrix(n: int) -> IMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m):
    return tuple(zip(*m)) if m else ()


def hermite_normal_form(m: IMat) -> IMat:
    """Row Hermite normal form of ``m``.

    Pivots are positive with strictly increasing column indices, entries
    above each pivot are reduced into ``[0, pivot)``, and zero rows sit at
    the bottom.  The result depends only on the row lattice of ``m``.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    h = [list(r) for r in m]
    r = 0
    for c in range(cols):
        if r == rows:
            break
        # knock column c down to a single nonzero entry at or below row r
        while True:
            nz = [i for i in range(r, rows) if h[i][c] != 0]
            if len(nz) <= 1:
                break
            i0 = min(nz, key=lambda i: abs(h[i][c]))
            for i in nz:
                if i == i0:
                    continue
                q = h[i][c] // h[i0][c]
                if q:
                    h[i] = [a - q * b for a, b in zip(h[i], h[i0])]
        nz = [i for i in range(r, rows) if h[i][c] != 0]
        if not nz:
            continue
        i0 = nz[0]
        h[r], h[i0] = h[i0], h[r]
        if h[r][c] < 0:
            h[r] = [-a for a in h[r]]
        p = h[r][c]
        for i in range(r):
            q = h[i][c] // p
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], h[r])]
        r += 1
    return tuple(map(tuple, h))


def det(m: IMat) -> int:
    """Determinant of a square integer matrix (Bareiss, fraction free)."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(r) for r in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def solution_lattice(m: IMat):
    """One HNF of the rows ``[m^T | I_n]``, split as ``(image, kernel)``.

    Their row lattice is ``{(m @ x, x)}``.  The HNF rows whose left block
    is zero are the canonical basis of ker(m) (:func:`kernel_lattice_basis`);
    the others, as pairs ``(m @ x, x)``, have left blocks in row echelon
    form that generate the image m Z^n, which is what
    :func:`integer_solution` reads.  ``m`` must have at least one row.
    """
    r = len(m)
    aug = tuple(col + e for col, e in zip(transpose(m),
                                          identity_matrix(len(m[0]))))
    image, kernel = [], []
    for row in hermite_normal_form(aug):
        if any(row[:r]):
            image.append((row[:r], row[r:]))
        else:
            kernel.append(row[r:])
    return tuple(image), tuple(kernel)


def kernel_lattice_basis(m: IMat) -> IMat:
    """Canonical basis of the saturated kernel lattice ``{x : m @ x = 0}``.

    The rows of the result generate ker(m) as a subgroup of Z^n and the
    subgroup is saturated (Z^n / ker has no torsion), so the basis can be
    extended to a basis of Z^n.  The basis is in Hermite form: each row's
    first nonzero entry is positive, in strictly increasing columns.
    """
    if not m:
        return ()
    return solution_lattice(m)[1]


def integer_solution(image, b, n: int):
    """An integer x in Z^n with ``m @ x = b``, or None when there is none.

    ``image`` is the first part of :func:`solution_lattice` of m, and ``b``
    holds ints or Fractions.  b must be an integer combination of the
    image rows' left blocks; their echelon form gives the coefficients one
    pivot at a time, and x is the same combination of the right blocks.
    """
    if any(x.denominator != 1 for x in b):
        return None
    rest = [int(x) for x in b]
    x = [0] * n
    for left, right in image:
        c = next(j for j, a in enumerate(left) if a)
        q, r = divmod(rest[c], left[c])
        if r:
            return None
        if q:
            rest = [a - q * e for a, e in zip(rest, left)]
            x = [a + q * e for a, e in zip(x, right)]
    return None if any(rest) else tuple(x)


def saturated_basis(vectors) -> IMat:
    """Canonical HNF basis of span(vectors) intersected with Z^n.

    Input rows may be int or Fraction vectors; the span is taken over Q.
    """
    vs = [primitive(v) for v in vectors if any(x != 0 for x in v)]
    if not vs:
        return ()
    comp = kernel_lattice_basis(tuple(vs))
    if not comp:
        n = len(vs[0])
        return identity_matrix(n)
    return kernel_lattice_basis(comp)


def project_off(v: IVec, basis: IMat) -> IVec:
    """``det(G)`` times the orthogonal projection of ``v`` off span(basis).

    ``G`` is the Gram matrix of the ``basis`` rows, which must be linearly
    independent integer vectors, and ``v`` is an integer vector.  Since
    ``det(G) > 0``, the result points the same way as the projection and
    :func:`primitive` of it is the same; scaling by ``det(G)`` keeps every
    entry an integer (Cramer's rule on the Bareiss :func:`det`).
    """
    if not basis:
        return tuple(v)
    gram = [[dot(p, q) for q in basis] for p in basis]
    rhs = [dot(p, v) for p in basis]
    scale = det(gram)
    out = [scale * x for x in v]
    for i, p in enumerate(basis):
        c = det(gram[:i] + [rhs] + gram[i + 1:])
        if c:
            out = [a - c * x for a, x in zip(out, p)]
    return tuple(out)
