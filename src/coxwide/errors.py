"""Exception types shared across the package, the check that raises
VerificationError, and the default caps of the word engine and walls.

The caps live here, beside the errors that report them, so that the command
line can print its defaults without loading the word engine or walls.
"""

DEFAULT_ORBIT_CAP = 200_000  # braid-orbit words, words.WordEngine
DEFAULT_BALL_CAP = 100_000   # Cayley-ball elements, walls.build_ball
DEFAULT_ORDER_CAP = 64       # element order, walls.order_of


class GraphFormatError(ValueError):
    """Raised when a graph description cannot be parsed or is inconsistent."""


class NonGeodesicError(ValueError):
    """Raised when an operation requiring a geodesic word receives a non-geodesic one."""


class OrbitCapError(RuntimeError):
    """Raised when a braid-orbit search exceeds the configured cap.

    Attributes:
        cap: the cap that was exceeded.
    """

    def __init__(self, cap, message=None):
        self.cap = cap
        super().__init__(message or f"braid orbit exceeded cap of {cap} words")


class SizeCapError(RuntimeError):
    """Raised when an enumeration (vertex subsets, ball elements, ...) exceeds a cap."""

    def __init__(self, cap, message=None):
        self.cap = cap
        super().__init__(message or f"enumeration exceeded cap of {cap}")


class VerificationError(RuntimeError):
    """Raised when a computed witness fails its independent re-check.

    This signals a defect in the library, not a property of the input, so it
    is deliberately not a ValueError.  Unlike an ``assert``, the check still
    runs under ``python -O``.
    """


def verify(ok: bool, reason: str) -> None:
    """Raise VerificationError with ``reason`` unless ``ok``."""
    if not ok:
        raise VerificationError(reason)


class ConstructionError(RuntimeError):
    """Raised when a fan/filter/extension construction cannot proceed.

    Carries the blocking vertex set when one is known, so callers can see why
    the greedy step had no legal move.  It does not by itself show that a
    precondition such as one-endedness or avoidance fails (see
    ``coxwide.fans``).
    """

    def __init__(self, message, blocking_set=None):
        self.blocking_set = None if blocking_set is None else frozenset(blocking_set)
        super().__init__(message)
