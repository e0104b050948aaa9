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

``scan_undecomposed`` works on whole lines too.  The points of a line of
R that split with z' on a given line of P are one interval, the sum of the
last-axis intervals of that line of P and of the matching line of Q.  The
scan covers each line of R with such sums, trying the lines of P that
covered the previous line and the neighbouring lines one step back along
each other axis, and searches for a split only at a point none covers.
"""

from operator import add, mul, sub


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


def _line_at(rows, lo, hi, p):
    """(a, b) when the system's points on the line at prefix p are
    ``p + (t,)`` for a <= t <= b, else None.  ``rows`` holds the (leading
    coefficients, last coefficient, rhs) of each row."""
    for v, a, b in zip(p, lo, hi):
        if v < a or v > b:
            return None
    a, b = lo[-1], hi[-1]
    for head, c, r in rows:
        rem = r - sum(map(mul, head, p))
        if c > 0:
            t = rem // c
            if t < b:
                b = t
        elif c < 0:
            t = -(-rem // c)
            if t > a:
                a = t
        elif rem < 0:
            return None
    return (a, b) if a <= b else None


def scan_undecomposed(rcoeffs, rrhs, rlo, rhi,
                      pcoeffs, prhs, plo, phi,
                      qcoeffs, qrhs, qlo, qhi):
    """First point z of the R system admitting no split z = z' + z''.

    z runs over the R system's lattice points in lex order; z' is searched
    in the P system intersected with the reflected, shifted Q system.
    Returns the first z with no z', or None when every point splits.

    The scan covers each line of R, at prefix pi, with interval sums.  Let
    I_P(p) be the last-axis interval of P's line at prefix p and I_Q(q)
    that of Q's line at q, each one bound pass over the rows, memoized per
    prefix for the whole scan.  The points of R's line that split with z'
    on P's line p are exactly I_P(p) + I_Q(pi - p): a split puts z'_last in
    I_P(p) and z''_last in I_Q(pi - p), and a + b with a in I_P(p) and b in
    I_Q(pi - p) splits as (p + (a,), (pi - p) + (b,)).

    The candidate p's of a line are the last p of the previous line, as it
    is and shifted by pi less the previous prefix, and the p's used on each
    line pi - e_j (j < d - 1), as they are and as p + e_j.  At each point c
    not yet covered, the first candidate whose interval holds c covers the
    line up to that interval's end; when none holds c, the inner search
    runs at c, and the prefix of the z' it finds covers c.

    The result is exact: every covered point has an explicit split, and
    every point no interval covers gets the full search, so the first
    failure is the lex-least point with no split.  The inner search calls
    ``iter_points`` directly, not the public ``scan_first``, so a wrapper
    installed on that name (a layer tracer) counts each search of this
    scan as part of this call, not as separate calls.
    """
    d = len(rlo)
    icoeffs = [tuple(row) for row in pcoeffs]
    icoeffs += [tuple(-a for a in row) for row in qcoeffs]
    prows = [(row[:-1], row[-1], b) for row, b in zip(pcoeffs, prhs)]
    qrows = [(row[:-1], row[-1], b) for row, b in zip(qcoeffs, qrhs)]
    plines, qlines = {}, {}

    def reach(pi, p):
        """I_P(p) + I_Q(pi - p), or None when either line is empty."""
        ip = plines.get(p, False)
        if ip is False:
            ip = plines[p] = _line_at(prows, plo, phi, p)
        if ip is None:
            return None
        q = tuple(map(sub, pi, p))
        iq = qlines.get(q, False)
        if iq is False:
            iq = qlines[q] = _line_at(qrows, qlo, qhi, q)
        if iq is None:
            return None
        return ip[0] + iq[0], ip[1] + iq[1]

    def search(z):
        ilo = tuple(max(plo[j], z[j] - qhi[j]) for j in range(d))
        ihi = tuple(min(phi[j], z[j] - qlo[j]) for j in range(d))
        irhs = list(prhs)
        for row, b in zip(qcoeffs, qrhs):
            irhs.append(b - sum(map(mul, row, z)))
        return next(iter_points(icoeffs, irhs, ilo, ihi), None)

    used = {}
    prev = None
    for pi, c, end in _lines(rcoeffs, rrhs, rlo, rhi):
        cands = []
        if prev is not None:
            last = used[prev][-1]
            cands += [last, tuple(map(add, last, map(sub, pi, prev)))]
        for j in range(d - 1):
            for p in used.get(pi[:j] + (pi[j] - 1,) + pi[j + 1:], ()):
                cands += [p[:j] + (p[j] + 1,) + p[j + 1:], p]
        cands = list(dict.fromkeys(cands))
        mine = used[pi] = []
        while c <= end:
            for p in cands:
                span = reach(pi, p)
                if span is not None and span[0] <= c <= span[1]:
                    break
            else:
                zp = search(pi + (c,))
                if zp is None:
                    return pi + (c,)
                p = zp[:-1]
                span = reach(pi, p)
            mine.append(p)
            c = span[1] + 1
        prev = pi
    return None
