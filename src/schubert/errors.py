"""Exception types shared across the library."""

__all__ = ["SchubertError", "NotNilpotent", "NoSolution", "UnsupportedGroup",
           "DimensionMismatch", "NotMember", "NotInCellInterior",
           "DegenerateConfiguration", "InfinitelyMany",
           "NegativeExpectedDimension", "ZeroPolynomial"]


class SchubertError(Exception):
    """Base class for all library-specific errors."""


class NotNilpotent(SchubertError):
    """A matrix required to be nilpotent is not."""


class NoSolution(SchubertError):
    """An equation has no roots at all."""


class UnsupportedGroup(SchubertError):
    """The requested construction does not exist for this group."""


class DimensionMismatch(SchubertError):
    """Operands live in incompatible dimensions."""


class NotMember(SchubertError):
    """The point does not lie in the Schubert variety."""


class NotInCellInterior(SchubertError):
    """The point is not an open-cell point, so tangent data is unavailable."""


class DegenerateConfiguration(SchubertError):
    """The input configuration is too special for the solver's parametrization."""


class InfinitelyMany(SchubertError):
    """The solution set is positive-dimensional."""


class NegativeExpectedDimension(SchubertError):
    """The imposed conditions exceed the ambient dimension."""


class ZeroPolynomial(SchubertError):
    """The zero polynomial has no finite vanishing order."""
