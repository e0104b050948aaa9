"""Built-in example inputs used by the command line front end and tests.

Two families.  In the triangle pair neither normal fan refines the other,
and no dilation of it is normally located; the witness for (kP, kQ) sits at
(1, 385k - 2).
The four-weight grading has boundary degrees u1, u2 whose fiber sums only
become exact on lattice points after passing to a multiple.
"""

from .gitfan import graded_projection
from .polyhedra import from_v, scale
from .reps import VRep


def triangle_pair(k: int = 1):
    """The plane triangles (kP, kQ) with P, Q spanned as below."""
    p = from_v(VRep(((165, 0), (175, 0), (0, 385)), ()))
    q = from_v(VRep(((0, 0), (35, 0), (0, 77)), ()))
    return scale(p, k), scale(q, k)


def boundary_grading():
    """Grading on Z^4 with two boundary degrees; returns (g, u1, u2)."""
    g = graded_projection(((4, 1), (2, 1), (1, 2), (1, 3)))
    return g, (2, 1), (1, 2)
