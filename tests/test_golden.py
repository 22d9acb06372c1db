"""Golden CLI corpus: exact stdout and exit code for every subcommand and format.

Each case runs ``corec.cli.main`` from ``tests/golden/inputs`` on one
argument list, once per output format.  The record kept under
``tests/golden/expected`` is the exit code, the first stderr line when
there is one, then stdout verbatim.  After an intended output change,
rewrite the records with ``python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import os
from pathlib import Path

import pytest

from corec.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected"
FORMATS = ("text", "dot", "json")

CASES = [
    *[(f"solve-{n}", ["solve", f"{n}.ceq"]) for n in ("spine", "cons", "words", "folded")],
    *[(f"classify-{n}", ["classify", f"{n}.ceq"]) for n in ("words", "folded", "spine")],
    *[(f"decompose-{n}", ["decompose", f"{n}.ceq"]) for n in ("words", "folded", "spine")],
    ("check-cor-join", ["check", "--corecursive", "join.falg", "2"]),
    ("check-cia-one", ["check", "--cia", "one.falg", "2"]),
    ("check-cor-flip", ["check", "--corecursive", "flip.falg", "2"]),
    ("check-cia-ident", ["check", "--cia", "ident.falg", "2"]),
    ("reduce-padded", ["reduce", "padded.pres"]),
    ("reduce-semilattice", ["reduce", "semilattice.pres"]),
    ("witness-binary", ["-k", "6", "witness", "sigma:2"]),
    ("witness-unary", ["-k", "6", "witness", "a:1"]),
    ("equal-loops", ["equal", "loop.ceq", "loop2.ceq"]),
    ("equal-distinct", ["equal", "loop.ceq", "param.ceq"]),
    ("equal-pres-comm", ["-k", "6", "equal", "comm_left.ceq", "comm_right.ceq", "--pres", "comm.pres"]),
    ("equal-pres-unknown", ["-k", "4", "equal", "comm_left.ceq", "spine.ceq", "--pres", "semilattice.pres"]),
    ("quotient-semilattice", ["quotient", "semilattice.pres", "--atoms", "2"]),
    ("quotient-comm", ["quotient", "comm.pres", "--atoms", "3"]),
    ("error-keyword", ["solve", "bad_keyword.ceq"]),
    ("error-symbol", ["solve", "bad_symbol.ceq"]),
    ("error-order", ["solve", "bad_order.ceq"]),
    ("error-arity", ["reduce", "bad_arity.pres"]),
    ("error-no-signature", ["quotient", "no_signature.pres", "--atoms", "2"]),
    ("error-missing-row", ["check", "--cia", "missing_row.falg", "1"]),
    ("error-duplicate-row", ["check", "--corecursive", "duplicate_row.falg", "1"]),
    ("error-budget", ["--budget", "5", "quotient", "semilattice.pres", "--atoms", "4"]),
]

PARAMS = [
    (f"{name}.{fmt}", ["--format", fmt, *argv])
    for name, argv in CASES
    for fmt in (("text",) if name.startswith("error-") else FORMATS)
]


def _record(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = [f"exit {code}\n"]
    if err.getvalue():
        lines.append(f"stderr {err.getvalue().splitlines()[0]}\n")
    return "".join(lines) + out.getvalue()


@pytest.mark.parametrize("name,argv", PARAMS, ids=[p[0] for p in PARAMS])
def test_golden(name, argv, monkeypatch):
    monkeypatch.delenv("COREC_BUDGET", raising=False)
    monkeypatch.chdir(INPUTS)
    expected = (EXPECTED / f"{name}.out").read_text(encoding="utf-8")
    assert _record(argv) == expected


if __name__ == "__main__":
    os.environ.pop("COREC_BUDGET", None)
    os.chdir(INPUTS)
    EXPECTED.mkdir(exist_ok=True)
    for name, argv in PARAMS:
        (EXPECTED / f"{name}.out").write_text(_record(argv), encoding="utf-8")
