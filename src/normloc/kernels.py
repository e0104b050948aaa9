"""Lattice scan kernels.

Every function takes integer inequality rows ``a @ x <= b`` as a coefficient
matrix plus right-hand-side list, and an integer box ``[lo, hi]`` per axis;
a system's points are the integer points of the box that satisfy every row.
Points are visited in lexicographic order; per coordinate the feasible
interval is tightened against every row using the best case of the
remaining coordinates, so subtrees that cannot contain solutions are never
entered.  Arithmetic is on Python ints, so coefficients of any size give
exact answers.
"""


def backend() -> str:
    """Name of the scan implementation: always the pure Python one."""
    return "pure"


def _ceildiv(a, b):
    return -((-a) // b)


def _minrest(coeffs, lo, hi, d):
    """minrest[i][j] = min over the box of sum(coeffs[i][t] * x[t], t >= j)."""
    table = []
    for row in coeffs:
        acc = [0] * (d + 1)
        for j in range(d - 1, -1, -1):
            c = row[j]
            acc[j] = acc[j + 1] + (c * lo[j] if c >= 0 else c * hi[j])
        table.append(acc)
    return table


def iter_points(coeffs, rhs, lo, hi):
    """Yield the integer points of the box satisfying all rows, lex order."""
    d = len(lo)
    if any(a > b for a, b in zip(lo, hi)):
        return
    m = len(coeffs)
    minrest = _minrest(coeffs, lo, hi, d)
    x = [0] * d

    def rec(j, partial):
        if j == d:
            yield tuple(x)
            return
        lo_j, hi_j = lo[j], hi[j]
        for i in range(m):
            c = coeffs[i][j]
            rem = rhs[i] - partial[i] - minrest[i][j + 1]
            if c > 0:
                b = rem // c
                if b < hi_j:
                    hi_j = b
            elif c < 0:
                b = _ceildiv(rem, c)
                if b > lo_j:
                    lo_j = b
            elif rem < 0:
                return
        for v in range(lo_j, hi_j + 1):
            x[j] = v
            nxt = [partial[i] + coeffs[i][j] * v for i in range(m)]
            yield from rec(j + 1, nxt)

    yield from rec(0, [0] * m)


def scan_points(coeffs, rhs, lo, hi):
    return list(iter_points(coeffs, rhs, lo, hi))


def scan_first(coeffs, rhs, lo, hi):
    return next(iter_points(coeffs, rhs, lo, hi), None)


def _member(coeffs, rhs, lo, hi, x):
    """Whether x is a point of the system: inside the box and every row."""
    for v, a, b in zip(x, lo, hi):
        if v < a or v > b:
            return False
    for row, b in zip(coeffs, rhs):
        if sum(c * v for c, v in zip(row, x)) > b:
            return False
    return True


def scan_undecomposed(rcoeffs, rrhs, rlo, rhi,
                      pcoeffs, prhs, plo, phi,
                      qcoeffs, qrhs, qlo, qhi):
    """First point z of the R system admitting no split z = z' + z''.

    z runs over the R system's lattice points in lex order; z' is searched
    in the P system intersected with the reflected, shifted Q system.
    Returns the first z with no z', or None when every point splits.

    The split (z', z'') found for the previous z is tried first: when
    z - z'' is a point of P, or z - z' a point of Q, z splits and the inner
    search is skipped.  Consecutive points mostly differ by one step in the
    last coordinate, so one of the two shifted splits usually still fits.
    Any split proves z is not the point sought, and the inner search still
    runs on every z that the shifted splits miss, so the result is the same
    as with a fresh search for every z.  The inner search calls
    ``iter_points`` directly, not the public ``scan_first``, so a wrapper
    installed on that name (a layer tracer) counts each search of this
    scan as part of this call, not as separate calls.
    """
    d = len(rlo)
    icoeffs = [tuple(row) for row in pcoeffs]
    icoeffs += [tuple(-a for a in row) for row in qcoeffs]
    split = None
    for z in iter_points(rcoeffs, rrhs, rlo, rhi):
        if split is not None:
            zp, zq = split
            shifted = tuple(a - b for a, b in zip(z, zq))
            if _member(pcoeffs, prhs, plo, phi, shifted):
                split = shifted, zq
                continue
            shifted = tuple(a - b for a, b in zip(z, zp))
            if _member(qcoeffs, qrhs, qlo, qhi, shifted):
                split = zp, shifted
                continue
        ilo = tuple(max(plo[j], z[j] - qhi[j]) for j in range(d))
        ihi = tuple(min(phi[j], z[j] - qlo[j]) for j in range(d))
        irhs = list(prhs)
        for row, b in zip(qcoeffs, qrhs):
            irhs.append(b - sum(a * zz for a, zz in zip(row, z)))
        zp = next(iter_points(icoeffs, irhs, ilo, ihi), None)
        if zp is None:
            return z
        split = zp, tuple(a - b for a, b in zip(z, zp))
    return None
