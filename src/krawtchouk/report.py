"""Failure-list reports shared by all verification suites, and Record, the
base of the package's small value classes."""
from __future__ import annotations

from fractions import Fraction

MAX_STORED = 100
# not via __dict__: a dict made in __init__ slows every attribute read
_setattr = object.__setattr__


class Record:
    """A small value class, built without dataclasses, which import inspect and
    typing. FIELDS names the constructor's arguments in order; DEFAULTS maps
    trailing ones to a factory, called per instance. Instances compare equal by
    their fields, vars() is the field dict, and pickling goes through __dict__."""

    FIELDS: tuple[str, ...] = ()
    DEFAULTS: dict = {}

    def __init__(self, *args, **kwargs):
        fields = type(self).FIELDS
        if args:
            if not kwargs and len(args) == len(fields):  # the fast path
                for name, value in zip(fields, args):
                    _setattr(self, name, value)
                return
            if len(args) > len(fields) or not kwargs.keys().isdisjoint(fields[:len(args)]):
                raise self._refused(args, kwargs)
            kwargs.update(zip(fields, args))
        used, defaults = 0, self.DEFAULTS
        for name in fields:
            if name in kwargs:
                value = kwargs[name]
                used += 1
            elif name in defaults:
                value = defaults[name]()
            else:
                raise self._refused(args, kwargs)
            _setattr(self, name, value)
        if used < len(kwargs):
            raise self._refused(args, kwargs)  # an unknown keyword

    def _refused(self, args, kwargs) -> TypeError:
        return TypeError(f"{type(self).__name__}{self.FIELDS} given {args}, {kwargs}")

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
