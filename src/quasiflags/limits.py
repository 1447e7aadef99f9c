"""Size caps shared by the enumerative routines.

Everything in this package is exponential in some input parameter, so each
entry point checks its arguments against a Caps value and refuses work that
would blow up, raising CapExceededError instead of hanging. The defaults are
sized for desk-scale exploration; pass a custom Caps to go further. The
module also holds the three argument rules that every entry point shares:
require_int, require_type and check_rank, and record, which writes every
value class of the package.
"""

from __future__ import annotations

from operator import attrgetter


class CapExceededError(Exception):
    """An input lies beyond the configured enumeration limits."""


# the code record compiles per class, in one exec: the two functions whose signatures name the
# fields. The maker fills a value of the unfrozen slots base _base with plain stores, then gives it
# the frozen class _cls, which CPython allows as _cls adds nothing to _base's layout; __init__ runs
# on a value of _cls, so it sets each slot through the slot's descriptor
_RECORD = """
def _unchecked({params}):
    obj = _new(_base){set_obj}
    obj.__class__ = _cls
    return obj
def __init__(self, {params}):{set_self}{check}
"""


def _field_methods(names: tuple, unchecked) -> dict:
    """__eq__, __hash__, __repr__ and __reduce__ of the fields names, as closures, not compiled."""
    get = attrgetter(*names)
    if len(names) == 1:
        # attrgetter of one name gives the value, not a tuple; hash, == and the maker take tuples
        one = get

        def get(obj):
            return (one(obj),)

    shown = ", ".join(f"{f}={{!r}}" for f in names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return get(self) == get(other)
        return NotImplemented

    def __hash__(self):
        return hash(get(self))

    def __repr__(self):
        return f"{self.__class__.__qualname__}({shown.format(*get(self))})"

    def __reduce__(self):
        return unchecked, get(self)

    return {"__eq__": __eq__, "__hash__": __hash__, "__repr__": __repr__, "__reduce__": __reduce__}


def _frozen_setattr(self, name, value):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls: type) -> type:
    """The frozen slotted value class of cls's annotated fields, with its unchecked maker.

    It writes what dataclass(frozen=True, slots=True) writes, without
    importing dataclasses: an __init__ that takes the fields with their
    defaults and then runs self.__post_init__(), looked up at call time, if
    cls defines one; __eq__ on the field tuples of two values of one class;
    __hash__, the hash of the field tuple; the dataclass __repr__;
    __setattr__ and __delattr__ that raise dataclasses.FrozenInstanceError;
    and __match_args__, the field names. The slots live on a private,
    unfrozen base class that no module binds, and cls adds none of its own
    (its __slots__ is ()). The maker, cls._unchecked, takes the same
    arguments, makes a value of the base, fills each slot with a plain
    store and then sets the value's __class__ to cls, so no check runs; it
    is only for values valid by construction. __reduce__ goes through it,
    so pickling does not rerun the checks either.

    Only the maker and __init__ are compiled, in one exec per class, as
    their signatures must name the fields; __eq__, __hash__, __repr__ and
    __reduce__ are closures over operator.attrgetter of the field names,
    which cost a class no compile.
    """
    names = tuple(cls.__annotations__)
    # the fields become slots, so their defaults and the instance dict leave the class body
    body = {k: v for k, v in cls.__dict__.items() if k not in (*names, "__dict__", "__weakref__")}
    env = {"__name__": cls.__module__, "_new": object.__new__}
    env.update({f"_default_{f}": cls.__dict__[f] for f in names if f in cls.__dict__})
    exec(_RECORD.format(
        params=", ".join(f"{f}=_default_{f}" if f"_default_{f}" in env else f for f in names),
        set_obj="".join(f"\n    obj.{f} = {f}" for f in names),
        set_self="".join(f"\n    _set_{f}(self, {f})" for f in names),
        check="\n    self.__post_init__()" if "__post_init__" in body else "",
    ), env)
    methods = {"_unchecked": env["_unchecked"], "__init__": env["__init__"]}
    methods.update(_field_methods(names, env["_unchecked"]))
    for name, func in methods.items():
        func.__module__, func.__qualname__ = cls.__module__, f"{cls.__qualname__}.{name}"
        body[name] = func
    # a static method, by whose qualified name pickle finds the maker that __reduce__ returns
    body["_unchecked"] = staticmethod(env["_unchecked"])
    body.update(__slots__=(), __match_args__=names)
    body.update(__setattr__=_frozen_setattr, __delattr__=_frozen_delattr)
    slots = {"__slots__": names, "__module__": cls.__module__}
    base = type(cls)(f"_{cls.__name__}Slots", cls.__bases__, slots)
    new = type(cls)(cls.__name__, (base,), body)
    new.__qualname__ = cls.__qualname__
    # the functions read these globals when called, so they can be bound after the class is made
    env.update(_base=base, _cls=new)
    env.update({f"_set_{f}": getattr(new, f).__set__ for f in names})
    return new


@record
class Caps:
    # rank bound for root/partition/strata enumeration (n <= max_rank)
    max_rank: int = 8
    # bound on |gamma| / |alpha| for partition and strata enumeration
    max_length: int = 12
    # stricter bounds for the finite-field oracle, which enumerates actual
    # module chains and is far more expensive per unit of input
    oracle_max_rank: int = 4
    oracle_max_length: int = 4
    oracle_primes: tuple[int, ...] = (2, 3)
    # bound on the number of candidate lattices a single enumeration may emit
    max_lattice_volume: int = 1_000_000

    def __post_init__(self) -> None:
        for name in ("max_rank", "max_length", "oracle_max_rank", "oracle_max_length", "max_lattice_volume"):
            require_int(name, getattr(self, name), 0)
        require_type("oracle_primes", self.oracle_primes, tuple)
        for q in self.oracle_primes:
            require_int("allowed prime", q, 0)


_KINDS = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}


def require_int(name: str, value: object, low: int | None) -> None:
    """Refuse a value that is not an int (a bool is not one) or is below low; None sets no bound."""
    if not isinstance(value, int) or isinstance(value, bool) or (low is not None and value < low):
        raise ValueError(f"{name} must be {_KINDS.get(low, f'an integer >= {low}')}, got {value!r}")


def require_type(name: str, value: object, cls: type) -> None:
    """Refuse an argument that is not a cls, such as a plain tuple for a GammaVec.

    The public entry points call it first, so that the wrong type fails with
    a TypeError naming the class to pass, not with an AttributeError.
    """
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise TypeError(f"{name} must be {article} {cls.__name__}, got {type(value).__name__} {value!r}")


DEFAULT_CAPS = Caps()


def check_rank(n: int, caps: Caps = DEFAULT_CAPS) -> None:
    require_int("rank parameter n", n, 2)
    require_type("caps", caps, Caps)
    if n > caps.max_rank:
        raise CapExceededError(f"n = {n} exceeds the rank cap {caps.max_rank}")
