"""Lattice scan kernels.

Every function takes integer inequality rows ``a @ x <= b`` as a coefficient
matrix plus right-hand-side list, and an integer box ``[lo, hi]`` per axis;
a system's points are the integer points of the box that satisfy every row.
Points are visited in lexicographic order, one line at a time: a line fixes
every coordinate but the last, and its points are one integer interval of
the last coordinate.  Per coordinate the feasible interval is tightened
against every row using the best case of the remaining coordinates, so
subtrees that cannot contain solutions are never entered, and the last
coordinate is never looped over point by point inside the recursion.
Arithmetic is on Python ints, so coefficients of any size give exact
answers.

``scan_undecomposed`` works on whole lines too.  A split z = z' + z'' of
one point covers a run of the points after it on its line: z' can move up
the last axis until a row of P stops it, and then z'' until a row of Q
does.  The scan jumps over each run and searches again only at the first
point past it.  At the first point of a line it also tries the splits
found at the first points of the neighbouring lines one step back along
each other axis, before it searches.
"""

from operator import mul


def backend() -> str:
    """Name of the scan implementation: always the pure Python one."""
    return "pure"


def _lines(coeffs, rhs, lo, hi):
    """Yield (prefix, lo_last, hi_last) for every nonempty line, lex order.

    ``prefix`` holds the first d - 1 coordinates; the line's points are
    ``prefix + (v,)`` for lo_last <= v <= hi_last.  ``slack[j][i]`` is
    rhs[i] less the box minimum of row i over the axes after j.
    """
    d = len(lo)
    if any(a > b for a, b in zip(lo, hi)):
        return
    cols = list(zip(*coeffs)) or [()] * d
    slack = [None] * d
    acc = list(rhs)
    for j in range(d - 1, -1, -1):
        slack[j] = acc
        acc = [s - (c * lo[j] if c >= 0 else c * hi[j])
               for s, c in zip(acc, cols[j])]
    last = d - 1
    x = [0] * last

    def rec(j, partial):
        lo_j, hi_j = lo[j], hi[j]
        col = cols[j]
        for c, s, p in zip(col, slack[j], partial):
            rem = s - p
            if c > 0:
                b = rem // c
                if b < hi_j:
                    hi_j = b
            elif c < 0:
                b = -(-rem // c)
                if b > lo_j:
                    lo_j = b
            elif rem < 0:
                return
        if j == last:
            if lo_j <= hi_j:
                yield tuple(x), lo_j, hi_j
            return
        for v in range(lo_j, hi_j + 1):
            x[j] = v
            yield from rec(j + 1, [p + c * v for p, c in zip(partial, col)])

    yield from rec(0, [0] * len(rhs))


def iter_points(coeffs, rhs, lo, hi):
    """Yield the integer points of the box satisfying all rows, lex order."""
    for prefix, a, b in _lines(coeffs, rhs, lo, hi):
        for v in range(a, b + 1):
            yield prefix + (v,)


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
        if sum(map(mul, row, x)) > b:
            return False
    return True


def _run(x, rows, top):
    """Largest t >= 0 with x + t * e_last inside ``rows`` and below ``top``.

    ``rows`` holds the (row, rhs, last coefficient) triples of the rows of
    a system whose last coefficient is positive: no other row and no lower
    box side can stop a move up the last axis.  x is a point of the system.
    """
    t = top - x[-1]
    for row, b, c in rows:
        s = (b - sum(map(mul, row, x))) // c
        if s < t:
            t = s
    return t


def scan_undecomposed(rcoeffs, rrhs, rlo, rhi,
                      pcoeffs, prhs, plo, phi,
                      qcoeffs, qrhs, qlo, qhi):
    """First point z of the R system admitting no split z = z' + z''.

    z runs over the R system's lattice points in lex order; z' is searched
    in the P system intersected with the reflected, shifted Q system.
    Returns the first z with no z', or None when every point splits.

    The scan goes line by line.  Given a split (z', z'') of z, let tP be
    the largest t with z' + t*e a point of P (e the last unit vector) and
    tQ the same for z'' in Q.  Every z + t*e with t <= tP + tQ splits as
    (z' + a*e, z'' + (t - a)*e) with a = min(t, tP), so the scan jumps to
    z + (tP + tQ + 1)*e.  There neither shifted split fits, by the choice
    of tP and tQ, so the inner search runs at once.  The run is not
    computed at a line's last point.

    At the first point z of a line no run reaches, so candidate splits are
    tried before the inner search: the split of the previous point (the
    last point of the previous line), then the splits recorded at the
    first points of the lines ``prefix - e_j`` for each j < d - 1.  A
    candidate (z', z'') of a point w covers z when z - z'' is a point of
    P, or z - z' a point of Q.  Any split proves that z is not the point
    sought, and the inner search still runs on every point that neither a
    run nor a candidate covers, so the result is the same as with a fresh
    search for every z.  The inner search calls ``iter_points`` directly,
    not the public ``scan_first``, so a wrapper installed on that name (a
    layer tracer) counts each search of this scan as part of this call,
    not as separate calls.
    """
    d = len(rlo)
    icoeffs = [tuple(row) for row in pcoeffs]
    icoeffs += [tuple(-a for a in row) for row in qcoeffs]
    prun = [(row, b, row[-1]) for row, b in zip(pcoeffs, prhs) if row[-1] > 0]
    qrun = [(row, b, row[-1]) for row, b in zip(qcoeffs, qrhs) if row[-1] > 0]
    ptop, qtop = phi[-1], qhi[-1]

    def search(z):
        ilo = tuple(max(plo[j], z[j] - qhi[j]) for j in range(d))
        ihi = tuple(min(phi[j], z[j] - qlo[j]) for j in range(d))
        irhs = list(prhs)
        for row, b in zip(qcoeffs, qrhs):
            irhs.append(b - sum(map(mul, row, z)))
        zp = next(iter_points(icoeffs, irhs, ilo, ihi), None)
        if zp is None:
            return None
        return zp, tuple(a - b for a, b in zip(z, zp))

    def shifted(split, z):
        zp, zq = split
        sp = tuple(a - b for a, b in zip(z, zq))
        if _member(pcoeffs, prhs, plo, phi, sp):
            return sp, zq
        sq = tuple(a - b for a, b in zip(z, zp))
        if _member(qcoeffs, qrhs, qlo, qhi, sq):
            return zp, sq
        return None

    starts = {}
    split = None
    for prefix, v, end in _lines(rcoeffs, rrhs, rlo, rhi):
        z = prefix + (v,)
        found = shifted(split, z) if split is not None else None
        j = 0
        while found is None and j < d - 1:
            near = starts.get(prefix[:j] + (prefix[j] - 1,) + prefix[j + 1:])
            if near is not None:
                found = shifted(near, z)
            j += 1
        if found is None:
            found = search(z)
            if found is None:
                return z
        starts[prefix] = split = found
        while v < end:
            zp, zq = split
            tp = _run(zp, prun, ptop)
            tq = _run(zq, qrun, qtop)
            if v + tp + tq >= end:
                t = end - v
                a = min(t, tp)
                split = (zp[:-1] + (zp[-1] + a,),
                         zq[:-1] + (zq[-1] + t - a,))
                break
            v += tp + tq + 1
            z = prefix + (v,)
            split = search(z)
            if split is None:
                return z
    return None
