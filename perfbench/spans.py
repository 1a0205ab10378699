"""Span tracing of the krawtchouk package, installed from outside it.

``install`` replaces the package's public functions with wrappers that
record a span per call: [name, start, end, parent index, key]. A worker
process runs one iteration, so its spans share the iteration; they stay in
memory until the worker writes them out. ``layer_metrics``
turns one iteration's spans and counts into the per-layer metrics.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

BUILD = "matrices.build_matrix"
CHECKS = tuple(f"matrices.{name}" for name in (
    "verify_pascal", "verify_recurrence_j", "verify_involution",
    "verify_sign_symmetries", "closed_form_row1_col01", "verify_binomial_conjugation"))
IDENTITIES = tuple(f"identities.{name}" for name in (
    "sum_squares_general", "sum_squares_symmetric", "partial_sum_plain",
    "column_sum_relation", "column_sum_of_squares", "row_sum_of_squares",
    "central_row_value", "column_square_central_link", "super_catalan_link",
    "catalan_connection_report"))
ZEON_OPS = tuple(f"zeon.{name}" for name in ("op_T", "op_Tstar", "op_U", "raise_op", "lower_op"))
MATMUL = "zeon.ZeonMatrix.__matmul__"
MAIN = "cli.main"
ANALYZE = "algebra.analyze_family"
STAGES = {"generators": "family_generators", "closure": "span_closure_dimension",
          "centralizer": "centralizer_dimension", "center": "center_dimension"}
ELIMINATING = ("closure", "centralizer", "center")
FAMILIES = ("U", "T", "TT")


class Tracer:
    """Spans and counts of one iteration, recorded by wrappers around package functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._stage: tuple[str, dict] | None = None  # open algebra stage and its echelons

    def span(self, name: str, fn, key=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, self._open[-1] if self._open else None,
                      key(*args) if key else None]
            self._open.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
        return wrapper

    def stage(self, stage: str, fn):
        """Span an algebra stage and, when it ends, read the fill-in of its echelons."""
        spanned = self.span(f"algebra.{fn.__name__}", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer, self._stage = self._stage, (stage, {})
            try:
                return spanned(*args, **kwargs)
            finally:
                pivots = [p for ech in self._stage[1].values() for p in ech.pivots.values()]
                self.counts[f"algebra.{stage}.pivot_nnz"] += sum(map(len, pivots))
                bits = max((abs(v).bit_length() for p in pivots for v in p.values()), default=0)
                name = f"algebra.{stage}.coeff_bits"
                self.counts[name] = max(self.counts[name], bits)
                self._stage = outer
        return wrapper

    def count_inserts(self, insert):
        @functools.wraps(insert)
        def wrapper(ech, vec):
            spanning = insert(ech, vec)
            if self._stage is not None:
                stage, echelons = self._stage
                echelons[id(ech)] = ech
                self.counts[f"algebra.{stage}.inserts"] += 1
                self.counts[f"algebra.{stage}.accepted"] += spanning
            return spanning
        return wrapper

    def count_records(self, record):
        @functools.wraps(record)
        def wrapper(rep, params, left, right):
            self.counts["report.cases"] += 1
            self.counts["report.failures"] += left != right
            return record(rep, params, left, right)
        return wrapper


def install() -> Tracer:
    """Wrap the public functions of every loaded krawtchouk module; return the tracer."""
    from krawtchouk import algebra, cli, identities, matrices, report, zeon

    tracer = Tracer()
    modules = [m for name, m in sys.modules.items()
               if name == "krawtchouk" or name.startswith("krawtchouk.")]

    def replace(original, wrapped):
        # 'from .x import f' copies f into other modules; patch every reference
        for module in modules:
            for attr in [a for a, v in vars(module).items() if v is original]:
                setattr(module, attr, wrapped)

    def wrap(name, module, key=None):
        attr = name.partition(".")[2]
        replace(getattr(module, attr), tracer.span(name, getattr(module, attr), key))

    wrap(MAIN, cli)
    wrap(BUILD, matrices, key=lambda N, r: f"{N}:{r}")
    for name in CHECKS:
        wrap(name, matrices)
    for name in IDENTITIES:
        wrap(name, identities)
    for name in ZEON_OPS:
        wrap(name, zeon)
    wrap(ANALYZE, algebra, key=lambda family, n, allow_large=False: family.value)
    for stage, attr in STAGES.items():
        replace(getattr(algebra, attr), tracer.stage(stage, getattr(algebra, attr)))
    zeon.ZeonMatrix.__matmul__ = tracer.span(MATMUL, zeon.ZeonMatrix.__matmul__)
    algebra.ExactEchelon.insert = tracer.count_inserts(algebra.ExactEchelon.insert)
    report.IdentityReport.record = tracer.count_records(report.IdentityReport.record)
    return tracer


# ---------------------------------------------------------------------------
# metrics from spans
# ---------------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval its child spans cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] is not None:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def busy(spans: list[list], names) -> float:
    """Time inside spans named in ``names``, not counting such spans twice when nested."""
    names = set(names)
    total = 0.0
    for s in spans:
        if s[0] in names and not _has_ancestor(spans, s, names):
            total += s[2] - s[1]
    return total


def _has_ancestor(spans, s, names) -> bool:
    parent = s[3]
    while parent is not None:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def _family(spans, s) -> str | None:
    parent = s[3]
    while parent is not None:
        if spans[parent][0] == ANALYZE:
            return spans[parent][4]
        parent = spans[parent][3]
    return None


def layer_metrics(spans: list[list], counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (probe metrics are added by the driver)."""
    selfs = self_times(spans)

    def self_sum(names):
        return sum(t for s, t in zip(spans, selfs) if s[0] in names)

    keys = [s[4] for s in spans if s[0] == BUILD]
    distinct = len(set(keys))
    m = {
        "matrices.build.calls": len(keys),
        "matrices.build.distinct": distinct,
        "matrices.build.repeat_share": (len(keys) - distinct) / len(keys) if keys else 0.0,
        "matrices.build.busy_s": busy(spans, [BUILD]),
        "matrices.build.max_N": max((int(k.split(":")[0]) for k in keys), default=0),
        "matrices.checks.self_s": self_sum(CHECKS),
        "identities.calls": sum(s[0] in IDENTITIES for s in spans),
        "identities.self_s": self_sum(IDENTITIES),
        "report.cases": counts.get("report.cases", 0),
        "report.failures": counts.get("report.failures", 0),
        "cli.self_s": self_sum([MAIN]),
        "zeon.ops.busy_s": busy(spans, ZEON_OPS),
        "zeon.matmul.calls": sum(s[0] == MATMUL for s in spans),
        "zeon.matmul.busy_s": busy(spans, [MATMUL]),
    }
    for stage, attr in STAGES.items():
        name = f"algebra.{attr}"
        m[f"algebra.{stage}.busy_s"] = busy(spans, [name])
        for family in FAMILIES:
            m[f"algebra.{stage}.{family}.busy_s"] = sum(
                s[2] - s[1] for s in spans if s[0] == name and _family(spans, s) == family)
    for stage in ELIMINATING:
        inserts = counts.get(f"algebra.{stage}.inserts", 0)
        m[f"algebra.{stage}.inserts"] = inserts
        m[f"algebra.{stage}.accept_ratio"] = (
            counts.get(f"algebra.{stage}.accepted", 0) / inserts if inserts else 0.0)
        m[f"algebra.{stage}.pivot_nnz"] = counts.get(f"algebra.{stage}.pivot_nnz", 0)
        m[f"algebra.{stage}.coeff_bits"] = counts.get(f"algebra.{stage}.coeff_bits", 0)
    return m
