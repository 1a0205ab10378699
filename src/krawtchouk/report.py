"""Failure-list reports shared by all verification suites."""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

MAX_STORED = 100


def render_rational(x: Fraction | int) -> str:
    """Render an exact value as 'num/den', or plain integer when denominator is 1."""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def render_side(x: Any) -> str:
    """One side of a failed comparison as text. A tuple prints element by element
    with render_rational, so an int and an equal Fraction print alike."""
    if isinstance(x, tuple):
        return "(" + ", ".join(
            render_rational(v) if isinstance(v, (int, Fraction)) else str(v) for v in x) + ")"
    return str(x)


@dataclass
class Failure:
    params: tuple
    left: Any
    right: Any

    def to_json(self) -> dict:
        def side(x):
            return render_rational(x) if isinstance(x, (int, Fraction)) else render_side(x)

        return {"params": [str(p) for p in self.params],
                "left": side(self.left), "right": side(self.right)}


@dataclass
class IdentityReport:
    """Outcome of one verification sweep: case count plus exact-mismatch list.

    The stored failure list is capped at MAX_STORED entries, but
    ``failure_count`` always reflects the true total.
    """

    suite: str
    cases: int = 0
    failure_count: int = 0
    failures: list[Failure] = field(default_factory=list)

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
