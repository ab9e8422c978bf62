"""Exception types shared across the package."""


class GroupSpeedError(Exception):
    """Base class for all package errors."""


class DegenerateInput(GroupSpeedError):
    """Input data cannot define a valid curve or domain."""


class NonConvexFit(GroupSpeedError):
    """Fitted curve fails the strict-convexity grid check."""


class InteriorMinimumMissing(GroupSpeedError):
    """Fitted curve attains its minimum at a domain endpoint."""


class OutOfDomain(GroupSpeedError):
    """Evaluation point lies outside the curve's domain."""


class DimensionMismatch(GroupSpeedError):
    """Vector/matrix dimensions disagree."""


class EmptyDomainIntersection(GroupSpeedError):
    """Agents' speed domains share no common interval."""


class InvalidSpec(GroupSpeedError):
    """Scenario specification is malformed."""
