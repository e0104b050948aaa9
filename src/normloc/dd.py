"""Double description over the integers.

Converts between the two descriptions of a rational polyhedral cone

    C = {x : e @ x = 0 for e in eqs,  a @ x <= 0 for a in ineqs}
      = lin(lines) + cone(rays)

using incremental constraint insertion with the combinatorial adjacency test
(two rays are adjacent iff no third ray is tight on every constraint both are
tight on).  All vectors are integer tuples; rays and lines are kept primitive.
The V-to-H direction runs the same engine on the polar cone, so facets come
out irredundant in both directions.
"""

from __future__ import annotations

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


def generators_from_constraints(dim: int, eqs, ineqs) -> tuple[IMat, IMat]:
    """Generators (lines, rays) of the cone cut out by eqs and ineqs.

    By polarity this is also the V-to-H direction: y is a valid inequality
    normal of lin(lines) + cone(rays) iff y @ g <= 0 for every generator, so
    on (lines, rays) it returns the equality and facet normals, irredundant
    as the polar's extreme rays.  Positive scaling of a row changes nothing.
    """
    lines, rays, _, _ = _state(dim, eqs, ineqs)
    out_lines = tuple(sorted(canonical_sign(ln) for ln in lines))
    out_rays = tuple(sorted(set(r for r, _ in rays)))
    return out_lines, out_rays
