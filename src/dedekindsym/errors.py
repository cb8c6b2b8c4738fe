"""Shared exception types."""


class DedekindSymError(Exception):
    """Base class for errors raised by this package."""


class NotInvertible(DedekindSymError):
    """Series has no inverse (constant term is not a unit)."""


class DivisionByZeroTail(DedekindSymError):
    """A tail of a continued-fraction sequence is not evaluable."""


class DomainError(DedekindSymError, ValueError):
    """Input pair lies outside the domain of the function (e.g. pq = 0 for an
    almost symbol); a ValueError too, as a bad argument value."""


class NonConvergence(DedekindSymError):
    """A numerical routine failed to reach the requested tolerance within its budget."""


class NotShuffled(DedekindSymError):
    """Input violates the shuffle (group-like) precondition."""
