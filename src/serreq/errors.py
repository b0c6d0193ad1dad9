"""Exception types shared across the package."""


class SerreqError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(SerreqError, ValueError):
    """Matrix dimensions are inconsistent with the requested operation."""


class EngineMismatch(SerreqError, ValueError):
    """Objects or morphisms from different engines (or fields) were mixed."""


class EndpointMismatch(SerreqError, ValueError):
    """Morphism endpoints do not line up for the requested operation."""


class NotInvertible(SerreqError, ValueError):
    """Inversion was requested for a morphism that is not an isomorphism."""


class NotSaturatedError(SerreqError, ValueError):
    """An operation required a saturated object and was handed one that is not."""


class CompositeNotZero(SerreqError, ValueError):
    """Homology was requested at a pair of maps whose composite is nonzero."""


class OracleUnsupported(SerreqError, ValueError):
    """The engine does not support exhaustive subobject enumeration."""


class InputValidationError(SerreqError, ValueError):
    """A session input document failed validation."""


class ContractViolation(SerreqError, RuntimeError):
    """An internal invariant failed: a result contradicts what the
    algorithm guarantees, which means a bug in this package."""
