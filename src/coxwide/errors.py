"""Exception types shared across the package, the check that raises
VerificationError, the default caps of the word engine and walls, and
``Record``, the base of every result type the package returns.

The caps live here, beside the errors that report them, so that the command
line can print its defaults without loading the word engine or walls.
``Record`` lives here because every module of the package imports this one,
and it imports nothing from the standard library that ``import coxwide``
would not load anyway (``dataclasses`` would add ``inspect``, ``ast``,
``dis`` and ``tokenize``).  From a type's ``__slots__`` it writes the
type's ``__init__`` and, unless the type has its own, its ``to_json_obj``.
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

# the types ``json_value`` returns as they are
_PLAIN = frozenset((str, int, bool, type(None)))


def json_value(value):
    """``value`` as JSON data, by its exact type: a ``str``, ``int``,
    ``bool`` or None as it is, a tuple or list as a new list and a dict as
    a new dict (their items rendered in turn), and a record by its own
    ``to_json_obj``.  No container of the result is shared with ``value``,
    so changing the result leaves the record as it was."""
    # Copy a container whole, then render in place its items that are not
    # plain (a comprehension or ``enumerate`` measured slower).  Containers
    # come first: the generated methods and these loops pass no plain value.
    kind = value.__class__
    if kind is dict:
        out = dict(value)
        for key, item in value.items():
            if item.__class__ not in _PLAIN:
                out[key] = json_value(item)
        return out
    if kind is tuple or kind is list:
        out = list(value)
        i = 0
        for item in value:
            if item.__class__ not in _PLAIN:
                out[i] = json_value(item)
            i += 1
        return out
    if kind in _PLAIN:
        return value
    return value.to_json_obj()


def _add_method(cls, source: str) -> None:
    """Compile the one function ``source`` defines as a method of ``cls``."""
    namespace = {}
    exec(source, {"set_slot": set_slot, "json_value": json_value,
                  "PLAIN": _PLAIN, "__name__": cls.__module__}, namespace)
    (name, method), = namespace.items()
    method.__qualname__ = f"{cls.__qualname__}.{name}"
    setattr(cls, name, method)


class Record:
    """Immutable record with named fields: the package's one mechanism for
    result types, in place of ``@dataclass(frozen=True)``.

    A subclass lists its fields once, in order, in ``__slots__``.  Unless
    the class defines ``__init__`` itself (as it must to give a field a
    default), the base generates one when the subclass is created: a
    written positional-or-keyword signature with one ``set_slot`` per
    field, the code ``dataclass`` generates, so construction stays as fast
    as a dataclass's.  In the same way, unless the class defines
    ``to_json_obj`` itself (as it must to rename a field, join a word into
    a string or nest a witness), the base generates one that returns the
    fields in slot order as a dict, each value rendered by ``json_value``.
    The base behaves as the frozen dataclass did: the repr names each
    field, records are equal only to records of the same class with equal
    field values and hash as the tuple of them, assignment and deletion
    raise ``AttributeError``, ``__match_args__`` lists the fields, and
    ``copy.replace`` (Python 3.13) builds a changed copy.
    Pickling and copying rebuild through the constructor (``__reduce__``),
    as the default would restore the slots by assignment.
    ``dataclasses.replace``, ``asdict``, ``fields`` and ``is_dataclass`` do
    not apply, and instances have no ``__dict__``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        fields = cls.__slots__
        cls.__match_args__ = fields
        if "__init__" not in cls.__dict__:
            body = "".join(f"\n    set_slot(self, {name!r}, {name})"
                           for name in fields)
            _add_method(cls, f"def __init__(self, {', '.join(fields)}):{body}")
        if "to_json_obj" not in cls.__dict__:
            # a plain field value is written out without calling json_value
            items = ", ".join(
                f"{name!r}: v if (v := self.{name}).__class__ in PLAIN"
                f" else json_value(v)" for name in fields)
            _add_method(cls, f"def to_json_obj(self):\n    return {{{items}}}")

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
