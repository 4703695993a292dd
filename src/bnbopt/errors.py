"""Exception types shared across the package."""


class DimensionError(ValueError):
    """A point's dimension does not match the kernel or domain dimension."""


class DuplicateObservationError(ValueError):
    """A point was observed twice; noise-free duplicates carry no information."""


class IllConditionedError(RuntimeError):
    """Gram factorization failed even after jitter escalation."""

    def __init__(self, message, min_pair_distance=None, jitter=None):
        super().__init__(message)
        self.min_pair_distance = min_pair_distance
        self.jitter = jitter


class InsufficientDataError(ValueError):
    """Too few usable entries for the requested fit."""


class GridTooLargeError(ValueError):
    """A lattice enumeration would exceed the configured size cap."""
