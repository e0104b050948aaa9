"""Brute-force oracles and closed-form invariants for the benchmark.

The oracles avoid the code paths they check, in the style of the test
suite's own: lattice points come from exhaustive box membership, splits and
sumsets from pairwise sums of those point lists, fiber points from direct
enumeration of nonnegative weight combinations.  They are slow, so the
reference maker runs them only on ops whose brute-force work stays under a
limit; the closed forms (Pick's theorem, edge normals) are cheap enough to
run on every op.
"""

from itertools import combinations
from math import ceil, floor, gcd

import normloc


def box_of(p):
    lo = tuple(ceil(min(v[i] for v in p.v.vertices)) for i in range(p.dim))
    hi = tuple(floor(max(v[i] for v in p.v.vertices)) for i in range(p.dim))
    return lo, hi


def box_size(lo, hi):
    size = 1
    for a, b in zip(lo, hi):
        size *= max(0, b - a + 1)
    return size


def box_points(lo, hi):
    pts = [()]
    for a, b in zip(lo, hi):
        pts = [x + (v,) for x in pts for v in range(a, b + 1)]
    return pts


def lattice_points(p, limit):
    """Sorted lattice points of a bounded P by box membership, or None when
    the box holds more than ``limit`` points."""
    lo, hi = box_of(p)
    if box_size(lo, hi) > limit:
        return None
    return [z for z in box_points(lo, hi) if p.contains(z)]


def sumset(a, b):
    return {tuple(x + y for x, y in zip(u, v)) for u in a for v in b}


def location_witness(p, q, limit):
    """Lex-least lattice point of P + Q with no split, None when located,
    or ``False`` when the brute force would exceed ``limit``."""
    if box_size(*box_of(p)) * box_size(*box_of(q)) > limit:
        return False
    pts_p = lattice_points(p, limit)
    pts_q = lattice_points(q, limit)
    pts_r = lattice_points(normloc.minkowski_sum(p, q), limit)
    if pts_r is None:
        return False
    sums = sumset(pts_p, pts_q)
    return next((z for z in pts_r if z not in sums), None)


def normality_witness(p, s_max, limit):
    """(scale, point) of the first normality failure up to s_max, None when
    every scale holds, ``False`` past the limit."""
    for s in range(2, s_max + 1):
        z = location_witness(normloc.scale(p, s - 1), p, limit)
        if z is False or z is not None:
            return z if z is False else (s, z)
    return None


def lex_least_split(z, p, q, limit):
    """Lex-least (z', z - z') over lattice points z' of P with z - z' in Q,
    None when z does not split, ``False`` past the limit."""
    pts_p = lattice_points(p, limit)
    if pts_p is None:
        return False
    for a in pts_p:
        b = tuple(x - y for x, y in zip(z, a))
        if q.contains(b):
            return a, b
    return None


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull2(points):
    """Counter-clockwise convex hull of plane points (monotone chain)."""
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) < 3:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def pick_count(vertices):
    """Lattice points of a full-dimensional lattice polygon, by Pick's
    theorem: area + boundary / 2 + 1."""
    h = [tuple(int(x) for x in v) for v in hull2(vertices)]
    twice_area = 0
    boundary = 0
    for a, b in zip(h, h[1:] + h[:1]):
        twice_area += a[0] * b[1] - a[1] * b[0]
        boundary += gcd(abs(b[0] - a[0]), abs(b[1] - a[1]))
    return (twice_area + boundary) // 2 + 1


def edge_normals(vertices):
    """Primitive outer edge normals of a full-dimensional polygon."""
    h = hull2(vertices)
    out = set()
    for a, b in zip(h, h[1:] + h[:1]):
        dx, dy = b[0] - a[0], b[1] - a[1]
        g = gcd(int(dx), int(dy))
        out.add((int(dy) // g, -int(dx) // g))
    return out


def polygon_refines(q1, q2):
    """N(Q1) refines N(Q2) for full-dimensional polygons exactly when every
    edge normal of Q2 is an edge normal of Q1."""
    return edge_normals(q2.v.vertices) <= edge_normals(q1.v.vertices)


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    v = tuple(x // g for x in v)
    return v if v > (0,) * len(v) else tuple(-x for x in v)


def wall_count(weights):
    """Distinct hyperplanes spanned by m - 1 weights, for m = 2 or 3 (the
    walls a GIT fan computation cuts the weight cone along)."""
    dirs = sorted({_primitive(w) for w in weights if any(w)})
    if len(weights[0]) == 2:
        return len(dirs)
    walls = set()
    for a, b in combinations(dirs, 2):
        c = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
             a[0] * b[1] - a[1] * b[0])
        if any(c):
            walls.add(_primitive(c))
    return len(walls)


def fiber_points(weights, u, limit):
    """Lattice points x >= 0 with sum x_i w_i = u, for nonzero nonnegative
    weights, in lex order; None once more than ``limit`` nodes are visited.
    """
    n = len(weights)
    out = []
    visited = 0

    def walk(i, rest, prefix):
        nonlocal visited
        visited += 1
        if visited > limit:
            raise OverflowError
        w = weights[i]
        if i == n - 1:
            # the last coordinate is forced: rest must be a multiple of w
            x = max(r // c for r, c in zip(rest, w) if c > 0)
            if all(r == x * c for r, c in zip(rest, w)):
                out.append(tuple(prefix) + (x,))
            return
        top = min((r // c for r, c in zip(rest, w) if c > 0))
        for x in range(top + 1):
            walk(i + 1, tuple(r - x * c for r, c in zip(rest, w)),
                 prefix + [x])

    try:
        walk(0, tuple(u), [])
    except OverflowError:
        return None
    return out


def fiber_sweep(weights, u1, u2, k_max, s_max, limit):
    """Brute-force multiple_making_sums_exact: (verdict, k or failures), or
    None past the limit."""
    failures = []
    for k in range(1, k_max + 1):
        hit = None
        for s in range(1, s_max + 1):
            a = tuple(s * k * x for x in u1)
            b = tuple(s * k * x for x in u2)
            ab = tuple(x + y for x, y in zip(a, b))
            f1 = fiber_points(weights, a, limit)
            f2 = fiber_points(weights, b, limit)
            f12 = fiber_points(weights, ab, limit)
            if f1 is None or f2 is None or f12 is None or \
                    len(f1) * len(f2) > limit:
                return None
            sums = sumset(f1, f2)
            z = next((z for z in f12 if z not in sums), None)
            if z is not None:
                hit = [k, s, list(z)]
                break
        if hit is None:
            return "verified_up_to", k
        failures.append(hit)
    return "exhausted", failures


def located_sweep(q1, q2, k_max, s_max, limit):
    """Brute-force located_multiple_search, or None past the limit."""
    failures = []
    for k in range(1, k_max + 1):
        hit = None
        for s in range(1, s_max + 1):
            z = location_witness(normloc.scale(q1, s * k),
                                 normloc.scale(q2, s * k), limit)
            if z is False:
                return None
            if z is not None:
                hit = [k, s, list(z)]
                break
        if hit is None:
            return "verified_up_to", k
        failures.append(hit)
    return "exhausted", failures


def git_cones_by_orbits(g, degrees):
    """GIT cone of each degree as the intersection of every orbit cone
    containing it, enumerating all weight subsets once."""
    distinct = sorted({tuple(w) for w in g.weights if any(w)})
    orbits = [normloc.cone_from_generators(g.m, rays=sub)
              for size in range(1, len(distinct) + 1)
              for sub in combinations(distinct, size)]
    out = []
    for u in degrees:
        result = None
        for c in orbits:
            if c.contains_point(u):
                result = c if result is None else \
                    normloc.intersect_cones(result, c)
        out.append(result)
    return out
