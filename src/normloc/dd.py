"""Double description over the integers.

One entry point, ``generators_from_constraints``, converts between the two
descriptions of a rational polyhedral cone

    C = {x : e @ x = 0 for e in eqs,  a @ x <= 0 for a in ineqs}
      = lin(lines) + cone(rays).

A simplicial system (as many inequalities as the dimension, of full rank,
and no equality) is answered in closed form by integer cofactors, when its
rows reduce to a core of at most 3 x 3 (``_simplicial_rays``).  Every other
system runs the double description: incremental constraint insertion with
the combinatorial adjacency test (two rays are adjacent iff no third ray is
tight on every constraint both are tight on).  All vectors are integer
tuples; rays and lines are kept primitive.  The V-to-H direction runs the
same entry point on the polar cone, so facets come out irredundant in both
directions.
"""

from __future__ import annotations

from math import gcd

from .exact import IMat, canonical_sign, dot, identity_matrix, primitive


def _insert(lines, rays, a, is_eq, bit, prev_mask):
    """Intersect the current (lines, rays) state with one constraint.

    ``rays`` holds (vector, zeroset) pairs; ``zeroset`` is a bitmask over
    inequality insertion order recording which inequalities the ray is tight
    on.  ``bit`` is the mask of the constraint being inserted (0 for an
    equality) and ``prev_mask`` covers all inequalities inserted before it.
    """
    pivot = None
    for i, ln in enumerate(lines):
        if dot(a, ln) != 0:
            pivot = i
            break
    if pivot is not None:
        # a line crosses the hyperplane: eliminate it, projecting everything
        # else onto {a @ x = 0} along it
        p = lines[pivot]
        s = dot(a, p)
        if s > 0:
            p = tuple(-x for x in p)
            s = -s
        new_lines = []
        for i, ln in enumerate(lines):
            if i == pivot:
                continue
            la = dot(a, ln)
            if la:
                ln = primitive([-s * x + la * y for x, y in zip(ln, p)])
            new_lines.append(ln)
        new_rays = []
        for r, z in rays:
            ra = dot(a, r)
            if ra:
                r = primitive([-s * x + ra * y for x, y in zip(r, p)])
            new_rays.append((r, z | bit))
        if not is_eq:
            # the eliminated line survives on its strictly feasible side;
            # as a former line it is tight on every earlier inequality
            new_rays.append((p, prev_mask))
        return new_lines, new_rays

    pos, zero, neg = [], [], []
    for r, z in rays:
        s = dot(a, r)
        if s > 0:
            pos.append((r, z, s))
        elif s < 0:
            neg.append((r, z, s))
        else:
            zero.append((r, z | bit))
    if not pos:
        if is_eq:
            return lines, zero
        return lines, zero + [(r, z) for r, z, _ in neg]

    new_rays = list(zero)
    if not is_eq:
        new_rays += [(r, z) for r, z, _ in neg]
    for rp, zp, sp in pos:
        for rn, zn, sn in neg:
            t = zp & zn
            adjacent = True
            for r3, z3 in rays:
                if r3 is rp or r3 is rn:
                    continue
                if t & z3 == t:
                    adjacent = False
                    break
            if not adjacent:
                continue
            vec = primitive([sp * x - sn * y for x, y in zip(rn, rp)])
            new_rays.append((vec, t | bit))
    return lines, new_rays


def _state(dim: int, eqs, ineqs):
    """The DD state ``(lines, rays, mask, bit)`` of the cone cut out by eqs
    and ineqs: rays carry their zero masks, ``mask`` covers the inserted
    inequalities and ``bit`` is the next one's.  ``_cut`` continues it one
    inequality at a time; zero rows are skipped."""
    lines = list(identity_matrix(dim))
    rays: list = []
    for e in eqs:
        if any(e):
            lines, rays = _insert(lines, rays, tuple(e), True, 0, 0)
    state = (lines, rays, 0, 1)
    for a in ineqs:
        if any(a):
            state = _cut(state, a)
    return state


def _cut(state, a):
    """The state after one more inequality a @ x <= 0, a nonzero.

    Earlier rows stay in the zero masks even where they have become
    redundant; the combinatorial adjacency test is exact on such rows, so
    cutting a state by a gives the generators of its rows plus a."""
    lines, rays, mask, bit = state
    lines, rays = _insert(lines, rays, tuple(a), False, bit, mask)
    return lines, rays, mask | bit, bit << 1


def _cofactors(b):
    """(det b, the columns of adj b) of a k x k matrix b, k <= 3, in
    closed form; for k = 3 column j is the cross product of the two rows
    other than j, in cyclic order."""
    k = len(b)
    if k == 3:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = b
        x = (b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0)
        return a0 * x[0] + a1 * x[1] + a2 * x[2], (
            x,
            (c1 * a2 - c2 * a1, c2 * a0 - c0 * a2, c0 * a1 - c1 * a0),
            (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))
    if k == 2:
        (a0, a1), (b0, b1) = b
        return a0 * b1 - a1 * b0, ((b1, -b0), (-a1, a0))
    if k == 1:
        return b[0][0], ((1,),)
    return 1, ()


def _simplicial_rays(a):
    """The sorted primitive rays of {x : a @ x <= 0} for a square a, or
    None when a is singular or out of the closed form's reach.

    For an invertible a the cone is simplicial: ray j is tight on every
    row but j, a column of -a^-1, so a positive multiple of column j of
    -sign(det a) adj(a).  Up to 3 x 3 the cofactors are closed-form.  A
    larger a must reduce to a core of at most 3 x 3 once its rows +-e_j
    on distinct columns J are peeled off: with K the other columns, C and
    B the other rows' entries in J and in K, and sign s_j on row e_j,
    ray j has x_j = -s_j |det B| and x_K = s_j sign(det B) adj(B) C e_j,
    and a core row's ray is -sign(det B) adj(B) e_p on K, 0 on J."""
    k = len(a)
    if k <= 3:
        det, adj = _cofactors(a)
        if not det:
            return None
        rays = []
        for col in adj:
            g = gcd(*col)
            if det > 0:
                g = -g
            rays.append(tuple([x // g for x in col]))
        rays.sort()
        return tuple(rays)
    unit = {}
    core = []
    for row in a:
        nz = [j for j, x in enumerate(row) if x]
        if len(nz) == 1 and row[nz[0]] in (1, -1):
            if nz[0] in unit:
                return None
            unit[nz[0]] = row[nz[0]]
        else:
            core.append(row)
    if len(core) > 3:
        return None
    cols = [j for j in range(k) if j not in unit]
    det, adj = _cofactors([[row[j] for j in cols] for row in core])
    if not det:
        return None
    s = 1 if det > 0 else -1
    rays = []
    for col in adj:
        x = [0] * k
        for j, y in zip(cols, col):
            x[j] = -s * y
        rays.append(primitive(x))
    for i, si in unit.items():
        x = [0] * k
        x[i] = -si * abs(det)
        c = [row[i] for row in core]
        for t, j in enumerate(cols):
            x[j] = si * s * sum(cp * col[t] for cp, col in zip(c, adj))
        rays.append(primitive(x))
    rays.sort()
    return tuple(rays)


def generators_from_constraints(dim: int, eqs, ineqs) -> tuple[IMat, IMat]:
    """Generators (lines, rays) of the cone cut out by eqs and ineqs.

    By polarity this is also the V-to-H direction: y is a valid inequality
    normal of lin(lines) + cone(rays) iff y @ g <= 0 for every generator, so
    on (lines, rays) it returns the equality and facet normals, irredundant
    as the polar's extreme rays.  Positive scaling of a row changes nothing.

    A simplicial system, dim inequalities of full rank and no equality, is
    answered by ``_simplicial_rays`` in closed form; it gives the same
    primitive rays as the DD, which runs on every other system.
    """
    if len(ineqs) == dim and not any(map(any, eqs)):
        rays = _simplicial_rays(ineqs)
        if rays:
            return (), rays
    lines, rays, _, _ = _state(dim, eqs, ineqs)
    out_lines = tuple(sorted(canonical_sign(ln) for ln in lines))
    out_rays = tuple(sorted(set(r for r, _ in rays)))
    return out_lines, out_rays
