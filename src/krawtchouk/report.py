"""Failure-list reports shared by all verification suites, and Record, the
base of the package's small value classes."""
from __future__ import annotations

from fractions import Fraction

MAX_STORED = 100


class Record:
    """A small value class, built without dataclasses, which import inspect and
    typing. FIELDS names the constructor's arguments in order; DEFAULTS maps
    trailing ones to a factory, called per instance. Instances compare equal by
    their fields, vars() is the field dict, and pickling goes through __dict__."""

    FIELDS: tuple[str, ...] = ()
    DEFAULTS: dict = {}

    def __init_subclass__(cls, **kwargs):
        """Give each subclass an __init__ bound to its own fields, with a fast
        path for every field given by position."""
        super().__init_subclass__(**kwargs)
        fields, defaults = cls.FIELDS, cls.DEFAULTS
        count = len(fields)
        # not via __dict__: a dict made here slows every attribute read
        setattr_ = object.__setattr__

        def refused(args, kwargs):
            return TypeError(f"{cls.__name__}{fields} given {args}, {kwargs}")

        def __init__(self, *args, **kwargs):
            if args:
                if not kwargs and len(args) == count:
                    for name, value in zip(fields, args):
                        setattr_(self, name, value)
                    return
                if len(args) > count or not kwargs.keys().isdisjoint(fields[:len(args)]):
                    raise refused(args, kwargs)
                kwargs.update(zip(fields, args))
            used = 0
            for name in fields:
                if name in kwargs:
                    value = kwargs[name]
                    used += 1
                elif name in defaults:
                    value = defaults[name]()
                else:
                    raise refused(args, kwargs)
                setattr_(self, name, value)
            if used < len(kwargs):
                raise refused(args, kwargs)  # an unknown keyword

        __init__.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = __init__

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self.FIELDS)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.FIELDS)
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    """A Record that hashes by its fields and refuses assignment."""

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")


def render_rational(x: Fraction | int) -> str:
    """Render an exact value as 'num/den', or plain integer when denominator is 1."""
    return str(Fraction(x))  # a bool prints as 0 or 1


def render_side(x) -> str:
    """One side of a failed comparison as text. A tuple prints element by element
    with render_rational, so an int and an equal Fraction print alike."""
    if isinstance(x, tuple):
        return "(" + ", ".join(
            render_rational(v) if isinstance(v, (int, Fraction)) else str(v) for v in x) + ")"
    return str(x)


class Failure(Record):
    FIELDS = ("params", "left", "right")

    def to_json(self) -> dict:
        def side(x):
            return render_rational(x) if isinstance(x, (int, Fraction)) else render_side(x)

        return {"params": [str(p) for p in self.params],
                "left": side(self.left), "right": side(self.right)}


class IdentityReport(Record):
    """Outcome of one verification sweep: case count plus exact-mismatch list.

    The stored failure list is capped at MAX_STORED entries, but
    ``failure_count`` always reflects the true total.
    """

    FIELDS = ("suite", "cases", "failure_count", "failures")
    DEFAULTS = {"cases": int, "failure_count": int, "failures": list}

    @property
    def ok(self) -> bool:
        return self.failure_count == 0

    def record(self, params: tuple, left, right) -> None:
        """Register one checked case; a failure iff left != right exactly."""
        self.cases += 1
        if left != right:
            self.failure_count += 1
            if len(self.failures) < MAX_STORED:
                self.failures.append(Failure(params, left, right))

    def record_scaled(self, params: tuple, left: int, right: int, scale: int) -> None:
        """record() for sides multiplied by scale; a failure keeps them divided back."""
        if left != right:
            left, right = Fraction(left, scale), Fraction(right, scale)
        self.record(params, left, right)

    def record_bool(self, params: tuple, ok: bool) -> None:
        self.record(params, bool(ok), True)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "failure_count": self.failure_count,
            "failures": [f.to_json() for f in self.failures],
        }
