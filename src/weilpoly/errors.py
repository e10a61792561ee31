"""Exception types shared across the package."""


class WeilpolyError(Exception):
    """Base class for all package errors."""


class DomainMismatchError(WeilpolyError):
    """Two exact values carry incompatible radicands."""


class StructuralError(WeilpolyError):
    """Input violates a structural precondition (degree, symmetry, ...)."""


class ExactnessError(WeilpolyError):
    """An exact-arithmetic invariant failed; indicates a bug, never bad input."""


class PrecisionExhausted(WeilpolyError):
    """A certified comparison stayed undecided at the precision cap."""


class UnprovenPrimeError(WeilpolyError):
    """A number passed every primality round, but lies above the bound where
    those rounds prove it prime."""


class UncertifiedProfileError(WeilpolyError):
    """The p-adic factor profile could not be certified within the refinement
    depth, or a query depends on a block of it left uncertified."""
