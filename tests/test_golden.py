"""Golden stdout corpus: fixed CLI invocations whose stdout and exit code are pinned.

Each call's stdout is kept byte for byte in ``tests/golden/<name>.out`` and its
exit code in ``tests/golden/exit_codes.json``. Only stdout is pinned; the
diagnostics on stderr are free to change. To rewrite the files after an
intended output change, run ``PYTHONPATH=src python tests/test_golden.py``.
"""
import json
import sys
from pathlib import Path

import pytest

from krawtchouk.cli import main

GOLDEN = Path(__file__).parent / "golden"

CORPUS = {
    "verify-sums-text": ["verify", "--suite", "sums", "--max-n", "6",
                         "--r", "-5/9", "--r", "0", "--r", "1"],
    "verify-sums-json": ["verify", "--suite", "sums", "--max-n", "6",
                         "--r", "-5/9", "--r", "3/7", "--format", "json"],
    "verify-sums-r-minus-one": ["verify", "--suite", "sums", "--max-n", "4",
                                "--r", "-1", "--r", "2"],
    "verify-all-text": ["verify", "--suite", "all", "--max-n", "4",
                        "--r", "-2/3", "--r", "1"],
    "verify-all-json": ["verify", "--suite", "all", "--max-n", "4",
                        "--r=-2/3", "--r", "5", "--format", "json"],
    "verify-sweep-seed3-json": ["verify", "--suite", "all", "--max-n", "12", "--r=0", "--r=1",
                                "--r=-9/4", "--r=-3/2", "--r=-1/2", "--r=-8/3", "--r=-4/5",
                                "--format", "json"],
    "verify-sweep-seed23-json": ["verify", "--suite", "all", "--max-n", "12", "--r=0", "--r=1",
                                 "--r=-4/3", "--r=5/8", "--r=4", "--r=6/7", "--r=-1/6",
                                 "--format", "json"],
    "verify-inject-fault": ["verify", "--suite", "involution", "--max-n", "3",
                            "--inject-fault"],
    "matrix-pretty": ["matrix", "--n", "6", "--r", "3/7"],
    "matrix-csv": ["matrix", "--n", "6", "--r", "3/7", "--format", "csv"],
    "matrix-json": ["matrix", "--n", "6", "--r", "3/7", "--format", "json"],
    "matrix-symmetric-pretty": ["matrix", "--n", "6"],
    "matrix-symmetric-csv": ["matrix", "--n", "6", "--format", "csv"],
    "matrix-symmetric-json": ["matrix", "--n", "6", "--format", "json"],
    "verify-catalan-json": ["verify", "--suite", "catalan", "--max-n", "5", "--format", "json"],
    "zeon-T-coord": ["zeon", "--n", "3", "--op", "T"],
    "zeon-U-coord": ["zeon", "--n", "3", "--op", "U"],
    "zeon-Tstar-json": ["zeon", "--n", "3", "--op", "Tstar", "--format", "json"],
    "zeon-raise-json": ["zeon", "--n", "3", "--op", "raise:2", "--format", "json"],
    **{f"algebra-{family}-{n}-{fmt}": ["algebra", "--family", family, "--n", str(n),
                                       "--check", "--format", fmt]
       for family in ("U", "T", "TT") for n in range(1, 6) for fmt in ("text", "json")},
    **{f"algebra-{family}-6-json": ["algebra", "--family", family, "--n", "6", "--allow-large",
                                    "--check", "--format", "json"]
       for family in ("T", "TT")},
    **{f"algebra-{family}-12-json": ["algebra", "--family", family, "--n", "12",
                                     "--check", "--format", "json"]
       for family in ("U", "T", "TT")},
    **{f"algebra-{family}-18-json": ["algebra", "--family", family, "--n", "18", "--allow-large",
                                     "--check", "--format", "json"]
       for family in ("T", "TT")},
    "budget-matrix": ["matrix", "--n", "161"],
    "budget-verify": ["verify", "--suite", "pascal", "--max-n", "25"],
    "budget-r": ["matrix", "--n", "40", "--r", "1e1000"],
    "budget-r-digits": ["matrix", "--n", "6", "--r", "1000000/999999"],
    "budget-r-count": ["verify", "--suite", "pascal", "--max-n", "2",
                       *(f"--r={k}" for k in range(21))],
    "budget-algebra": ["algebra", "--family", "U", "--n", "33"],
    "budget-algebra-large": ["algebra", "--family", "U", "--n", "49", "--allow-large"],
    "bad-zeon-token": ["zeon", "--n", "2", "--op", "foo"],
    "bad-zeon-index": ["zeon", "--n", "2", "--op", "raise:x"],
}


def _exit_codes() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text())


def _run(argv: list[str]) -> int:
    """main's exit code, also when argparse rejects an argument and exits."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_stdout_and_exit_code_match_the_golden_files(capsys, name):
    code = _run(CORPUS[name])
    out = capsys.readouterr().out
    assert code == _exit_codes()[name]
    assert out == (GOLDEN / f"{name}.out").read_text()


def test_every_golden_file_belongs_to_the_corpus():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(CORPUS)
    assert sorted(_exit_codes()) == sorted(CORPUS)


def _capture() -> None:
    """Rewrite the golden files, with the default formats whatever the shell sets."""
    import contextlib
    import io
    import os

    os.environ.pop("KRAWTCHOUK_FORMAT", None)
    codes = {}
    for name, argv in sorted(CORPUS.items()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            codes[name] = _run(argv)
        (GOLDEN / f"{name}.out").write_text(out.getvalue())
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _capture()
    sys.exit(0)
