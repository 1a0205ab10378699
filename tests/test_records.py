"""The value classes built on report.Record: construction, equality, hashing,
pickling and repr, as the callers and the --jobs pool use them."""
import pickle
from fractions import Fraction

import pytest

from krawtchouk.algebra import AlgebraComparison, AlgebraStats, ComponentSpec, Family
from krawtchouk.matrices import KrawtchoukMatrix, build_matrix
from krawtchouk.report import Failure, IdentityReport

STATS = AlgebraStats(4, 3, 6, 3)
SPEC = ComponentSpec(((2, 1), (1, 2)))
# (class, positional arguments, the same as keywords)
CASES = [
    (Failure, (("i", 1, 2), 3, Fraction(7, 2)),
     {"params": ("i", 1, 2), "left": 3, "right": Fraction(7, 2)}),
    (IdentityReport, ("pascal", 3, 1), {"suite": "pascal", "cases": 3, "failure_count": 1}),
    (KrawtchoukMatrix, (1, 1, ((1, 1), (1, -1))), {"N": 1, "r": 1, "entries": ((1, 1), (1, -1))}),
    (AlgebraStats, (4, 3, 6, 3), {"d": 4, "delta": 3, "zeta": 6, "z": 3}),
    (ComponentSpec, (((2, 1), (1, 2)),), {"components": ((2, 1), (1, 2))}),
    (AlgebraComparison, (Family.U, 2, STATS, STATS, SPEC),
     {"family": Family.U, "n": 2, "computed": STATS, "predicted": STATS, "components": SPEC}),
]
FROZEN = (KrawtchoukMatrix, AlgebraStats, ComponentSpec)


@pytest.mark.parametrize("cls,args,kwargs", CASES, ids=[c[0].__name__ for c in CASES])
def test_construction_equality_repr_pickling_and_hash(cls, args, kwargs):
    a, b = cls(*args), cls(**kwargs)
    assert a == b and not a != b
    assert {k: v for k, v in vars(a).items() if k in kwargs} == kwargs
    assert repr(a) == repr(b) and repr(a).startswith(f"{cls.__name__}(")
    assert a != cls(*args[:-1], "other")  # the last field takes part in the comparison
    assert pickle.loads(pickle.dumps(a)) == a
    if cls in FROZEN:
        assert hash(a) == hash(b) and len({a, b}) == 1
        with pytest.raises(AttributeError):
            setattr(a, cls.FIELDS[0], "other")
    else:
        with pytest.raises(TypeError):
            hash(a)  # mutable, as a non-frozen dataclass


@pytest.mark.parametrize("bad", [
    lambda: AlgebraStats(1, 2, 3),  # a field without a default is missing
    lambda: AlgebraStats(1, 2, 3, 4, 5),
    lambda: AlgebraStats(1, 2, 3, 4, d=1),  # d given twice
    lambda: AlgebraStats(1, 2, 3, zz=4),
    lambda: IdentityReport(),
], ids=["missing", "too-many", "twice", "unknown", "no-suite"])
def test_bad_arguments_raise_type_error(bad):
    with pytest.raises(TypeError):
        bad()


def test_defaults_are_fresh_per_instance():
    a, b = IdentityReport("a"), IdentityReport("b")
    a.record(("x",), 1, 2)
    assert (a.cases, a.failure_count, len(a.failures)) == (1, 1, 1)
    assert (b.cases, b.failure_count, b.failures) == (0, 0, [])
    c, d = (AlgebraComparison(Family.T_TSTAR, 1, STATS, STATS, SPEC) for _ in range(2))
    c.matches["d"] = True
    c.notes.append("note")
    assert (d.matches, d.notes, d.computed_components) == ({}, [], None)


def test_vars_is_the_field_dict_in_field_order():
    assert vars(AlgebraStats(d=16, delta=5, zeta=70, z=5)) == {
        "d": 16, "delta": 5, "zeta": 70, "z": 5}
    assert list(vars(STATS)) == ["d", "delta", "zeta", "z"]
    assert repr(STATS) == "AlgebraStats(d=4, delta=3, zeta=6, z=3)"


def test_a_report_with_a_failure_survives_pickling():
    rep = IdentityReport("pascal N=2")
    rep.record(("i", 0, 1), Fraction(1, 3), 2)
    rep.record(("i", 0, 2), 5, 5)
    copy = pickle.loads(pickle.dumps(rep))
    assert copy == rep and copy is not rep
    assert copy.failures == [Failure(("i", 0, 1), Fraction(1, 3), 2)]
    assert (copy.cases, copy.failure_count, copy.ok) == (2, 1, False)
    assert copy.to_json() == rep.to_json()


def test_scaled_is_computed_once_and_left_out_of_equality():
    entries = build_matrix(2, Fraction(1, 3)).entries  # columns (1+z)^(2-j) (1-z/3)^j
    M = KrawtchoukMatrix(2, Fraction(1, 3), entries)
    assert "scaled" not in vars(M)
    scaled = M.scaled
    assert scaled == ((1, 3, 9), (2, 2, -6), (1, -1, 1))  # column j times 3^j
    assert M.scaled is scaled and vars(M)["scaled"] is scaled
    fresh = KrawtchoukMatrix(2, Fraction(1, 3), entries)
    assert M == fresh and hash(M) == hash(fresh)
    assert pickle.loads(pickle.dumps(M)).scaled == scaled
