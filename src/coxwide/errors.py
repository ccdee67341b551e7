"""Exception types shared across the package, the check that raises
VerificationError, the default caps of the word engine and walls, and
``Record``, the base of the classification layer's result types.

The caps live here, beside the errors that report them, so that the command
line can print its defaults without loading the word engine or walls.
``Record`` lives here because every module of the classification layer
imports this one, and it imports nothing from the standard library that
``import coxwide`` would not load anyway (``dataclasses`` would add
``inspect``, ``ast``, ``dis`` and ``tokenize``).
"""

from reprlib import recursive_repr

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


# A record's ``__init__`` sets each slot once with this, since
# ``Record.__setattr__`` raises.
set_slot = object.__setattr__


class Record:
    """Immutable record with named fields, the classification layer's
    replacement for ``@dataclass(frozen=True)``.

    A subclass lists its fields in ``__slots__``, in order, and sets each
    in its own ``__init__`` with ``set_slot``; a written signature keeps
    construction by position and keyword as fast as a dataclass's.  The
    base behaves as the frozen dataclass did: the repr names each field,
    records are equal only to records of the same class with equal field
    values and hash as the tuple of them, assignment and deletion raise
    ``AttributeError``, ``__match_args__`` lists the fields, and
    ``copy.replace`` (Python 3.13) builds a changed copy.  Pickling and
    copying rebuild through the constructor (``__reduce__``), as the
    default would restore the slots by assignment.  ``dataclasses.replace``,
    ``asdict``, ``fields`` and ``is_dataclass`` do not apply.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    @recursive_repr()
    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()

    def __replace__(self, **changes):
        return self.__class__(**dict(zip(self.__slots__, self._values()),
                                     **changes))
