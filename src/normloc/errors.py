"""Exceptions shared across the package."""


class NormlocError(ValueError):
    """Base class for all errors raised by this package."""


class ZeroVector(NormlocError):
    """A nonzero vector was required."""


class DimensionMismatch(NormlocError):
    """Operands live in different ambient dimensions."""


class EmptyPolyhedron(NormlocError):
    """The constraint system has no solution."""


class NotPointed(NormlocError):
    """The polyhedron contains a line, so it has no vertex."""


class Unbounded(NormlocError):
    """Lattice point enumeration over an unbounded set without a window."""


class NotLattice(NormlocError):
    """A lattice polyhedron (integral vertices) was required."""


class SupportMismatch(NormlocError):
    """Fan operation on fans with different supports."""


class WeightOutsideCone(NormlocError):
    """The requested degree lies outside the weight cone."""


class TailConeMismatch(NormlocError):
    """The two polyhedra do not share a tail cone suitable for realization."""


class NotFullDimensional(NormlocError):
    """A full-dimensional polyhedron was required."""


class RealizationError(NormlocError):
    """A realized pair failed its construction-time verification."""
