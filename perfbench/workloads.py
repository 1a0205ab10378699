"""Seeded CLI inputs for each benchmark workload, and oracles for their outputs.

The oracles share no code with the krawtchouk package: matrix entries come
from the explicit binomial sum, algebra statistics from closed forms kept
here. A call's outcome is checked by ``check_call``, which returns None when
the call is correct and a one-line reason otherwise.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from math import comb

# BENCHMARK.json gates all but algebra-n6, which runs on request (README.md says why).
WORKLOADS = ("verify-sweep", "matrix-wide", "algebra-small", "algebra-n6")
VERIFY_MAX_N = 12
VERIFY_CASES = 31568  # cases checked by verify --suite all --max-n 12, for any r != -1
MATRIX_N = 80
# matrix-wide builds one matrix per r: how long a build takes depends on the size of r's
# numerator and denominator, so with one r per seed the seed would move wall_s by ~10%
MATRIX_CALLS = 3
SUITES = ("pascal", "recurrence", "involution", "symmetries", "rows-cols",
          "conjugation", "sums", "catalan", "supercatalan", "zeon")


def seeded_rationals(rng: random.Random, count: int) -> list[Fraction]:
    """Distinct rationals num/den with |num| <= 9, 1 <= den <= 9, not -1, 0 or 1."""
    out: list[Fraction] = []
    while len(out) < count:
        r = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if r not in (-1, 0, 1) and r not in out:
            out.append(r)
    return out


def r_option(r: Fraction) -> str:
    # '--r -5/9' is read by argparse as an option and exits 2; '--r=-5/9' is not.
    return f"--r={r}"


def verify_argv(seed: int, suite: str = "all") -> list[str]:
    rs = [Fraction(0), Fraction(1)] + seeded_rationals(random.Random(f"verify-sweep:{seed}"), 5)
    return (["verify", "--suite", suite, "--max-n", str(VERIFY_MAX_N)]
            + [r_option(r) for r in rs] + ["--format", "json"])


def matrix_rs(seed: int) -> list[Fraction]:
    return seeded_rationals(random.Random(f"matrix-wide:{seed}"), MATRIX_CALLS)


def algebra_argv(family: str, n: int) -> list[str]:
    argv = ["algebra", "--family", family, "--n", str(n), "--check", "--format", "json"]
    return argv + ["--allow-large"] if n > 5 else argv


def workload_calls(workload: str, seed: int) -> list[list[str]]:
    """The CLI argv lists one iteration of the workload runs, in order."""
    if workload == "verify-sweep":
        return [verify_argv(seed)]
    if workload == "matrix-wide":
        return [["matrix", "--n", str(MATRIX_N), r_option(r), "--format", "json"]
                for r in matrix_rs(seed)]
    if workload == "algebra-small":
        return [algebra_argv(f, n) for f in ("U", "T", "TT") for n in range(1, 6)]
    if workload == "algebra-n6":
        return [algebra_argv(f, 6) for f in ("T", "TT")]
    raise ValueError(f"unknown workload {workload!r}")


def probe_calls(seed: int) -> list[list[str]]:
    """verify-sweep split into one verify call per suite, for per-suite timings."""
    return [verify_argv(seed, suite) for suite in SUITES]


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def krawtchouk_matrix(N: int, r: Fraction) -> list[list[Fraction]]:
    """K[n][j] = sum_k C(N-j, n-k) C(j, k) (-r)^k, summed over integers first.

    With r = p/q every term of row n has the common denominator q^n.
    """
    p, q = r.numerator, r.denominator
    neg_p = [(-p) ** k for k in range(N + 1)]
    q_pow = [q ** k for k in range(N + 1)]
    return [
        [Fraction(sum(comb(N - j, n - k) * comb(j, k) * neg_p[k] * q_pow[n - k]
                      for k in range(min(n, j) + 1)), q_pow[n])
         for j in range(N + 1)]
        for n in range(N + 1)
    ]


def algebra_stats(family: str, n: int) -> dict[str, int]:
    """Closed-form d, delta, zeta, z; for TT, z is the computed value delta."""
    if family == "U":
        delta, zeta, z = n + 1, comb(2 * n, n), n + 1
    elif family == "T":
        delta, zeta, z = comb(n + 3, 3), comb(2 * n, n) // (n + 1), 1 + n // 2
    elif family == "TT":
        if n % 2 == 0:
            delta, zeta = (n + 2) ** 2 // 4, comb(n, n // 2) ** 2
        else:
            delta, zeta = (n + 1) * (n + 3) // 4, 2 * comb(n, n // 2) * comb(n - 1, n // 2)
        z = delta
    else:
        raise ValueError(f"unknown family {family!r}")
    return {"d": 2 ** n, "delta": delta, "zeta": zeta, "z": z}


def check_matrix(doc: dict, N: int, expected: list[list[Fraction]]) -> str | None:
    if doc.get("N") != N or len(doc.get("entries", ())) != N + 1:
        return f"matrix has the wrong size: N={doc.get('N')}"
    for n, row in enumerate(doc["entries"]):
        if len(row) != N + 1:
            return f"row {n} has {len(row)} entries"
        for j, cell in enumerate(row):
            if Fraction(cell) != expected[n][j]:
                return f"entry [{n}][{j}] = {cell}, expected {expected[n][j]}"
    return None


def check_algebra(doc: dict, family: str, n: int) -> str | None:
    if doc.get("family") != family or doc.get("n") != n:
        return f"algebra output is for {doc.get('family')} n={doc.get('n')}"
    want = algebra_stats(family, n)
    got = {k: doc.get("computed", {}).get(k) for k in want}
    return None if got == want else f"{family} n={n}: computed {got}, expected {want}"


def check_verify(doc: dict, cases: int | None) -> str | None:
    if doc.get("total_failures") != 0 or doc.get("exit_code") != 0:
        return f"verify reports {doc.get('total_failures')} failures"
    if cases is not None and doc.get("total_cases") != cases:
        return f"verify checked {doc.get('total_cases')} cases, expected {cases}"
    return None


def check_call(argv: list[str], rc, stdout: str, matrices: dict) -> str | None:
    """Why one CLI call's result is wrong, or None if it is right.

    ``matrices`` maps (N, r) to the oracle's matrix for every matrix call.
    """
    if rc != 0:
        return f"exit code {rc}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not one JSON document"
    if argv[0] == "matrix":
        N, r = int(_option(argv, "--n")), Fraction(_option(argv, "--r"))
        return check_matrix(doc, N, matrices[N, r])
    if argv[0] == "algebra":
        return check_algebra(doc, _option(argv, "--family"), int(_option(argv, "--n")))
    if argv[0] == "verify":
        return check_verify(doc, VERIFY_CASES if _option(argv, "--suite") == "all" else None)
    return f"no oracle for {argv[0]}"


def _option(argv: list[str], name: str) -> str:
    """Value of the first '--name value' or '--name=value' in argv."""
    for i, token in enumerate(argv):
        if token == name:
            return argv[i + 1]
        if token.startswith(name + "="):
            return token[len(name) + 1:]
    raise KeyError(name)
