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
    "verify-inject-fault": ["verify", "--suite", "involution", "--max-n", "3",
                            "--inject-fault"],
    "matrix-pretty": ["matrix", "--n", "6", "--r", "3/7"],
    "matrix-csv": ["matrix", "--n", "6", "--r", "3/7", "--format", "csv"],
    "matrix-json": ["matrix", "--n", "6", "--r", "3/7", "--format", "json"],
    "zeon-T-coord": ["zeon", "--n", "3", "--op", "T"],
    "zeon-U-coord": ["zeon", "--n", "3", "--op", "U"],
    "zeon-Tstar-json": ["zeon", "--n", "3", "--op", "Tstar", "--format", "json"],
    "zeon-raise-json": ["zeon", "--n", "3", "--op", "raise:2", "--format", "json"],
    **{f"algebra-{family}-{n}-{fmt}": ["algebra", "--family", family, "--n", str(n),
                                       "--check", "--format", fmt]
       for family in ("U", "T", "TT") for n in range(1, 5) for fmt in ("text", "json")},
    "budget-matrix": ["matrix", "--n", "161"],
    "budget-verify": ["verify", "--suite", "pascal", "--max-n", "25"],
    "budget-algebra": ["algebra", "--family", "U", "--n", "6"],
    "budget-algebra-large": ["algebra", "--family", "U", "--n", "7", "--allow-large"],
    "bad-zeon-token": ["zeon", "--n", "2", "--op", "foo"],
    "bad-zeon-index": ["zeon", "--n", "2", "--op", "raise:x"],
}


def _exit_codes() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_stdout_and_exit_code_match_the_golden_files(capsys, name):
    code = main(list(CORPUS[name]))
    out = capsys.readouterr().out
    assert code == _exit_codes()[name]
    assert out == (GOLDEN / f"{name}.out").read_text()


def test_every_golden_file_belongs_to_the_corpus():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(CORPUS)
    assert sorted(_exit_codes()) == sorted(CORPUS)


def _capture() -> None:
    import contextlib
    import io

    codes = {}
    for name, argv in sorted(CORPUS.items()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            codes[name] = main(list(argv))
        (GOLDEN / f"{name}.out").write_text(out.getvalue())
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _capture()
    sys.exit(0)
