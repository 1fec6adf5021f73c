"""Exception types shared across the package."""


class DpgsError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(DpgsError, ValueError):
    """Operands have incompatible shapes."""


class NotSymmetric(DpgsError, ValueError):
    """A symmetric matrix was required."""


class NotPD(DpgsError, ValueError):
    """A positive definite matrix was required."""


class PreconditionViolated(DpgsError, ValueError):
    """An argument is outside an operation's documented domain."""


class OddRowCount(DpgsError, ValueError):
    """Pairing requires an even number of rows."""


class EmptyReferenceSet(DpgsError, ValueError):
    """The reference index set is empty."""


class SubsetTooLarge(DpgsError, ValueError):
    """Requested subset size exceeds the population size."""


class ShapeMismatch(DpgsError, ValueError):
    """Dataset shape does not match the plan."""


class NonFiniteInput(DpgsError, ValueError):
    """A dataset holds a NaN or infinite entry."""


class SupportMismatch(DpgsError, ValueError):
    """Discrete distributions are not defined on a common support."""


class QuadratureFailure(DpgsError, RuntimeError):
    """Numerical integration did not reach the requested accuracy."""


class NoConvergence(DpgsError, RuntimeError):
    """An iterative computation failed to reach a fixed point."""


class InvalidParams(DpgsError, ValueError):
    """Privacy or planner parameters are outside their valid ranges."""
