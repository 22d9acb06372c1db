"""Self-test of the benchmark at a tiny size.

Every op of every workload must pass its check, and every check must reject
a deliberately corrupted copy of the op's real output.  Also checks that
each workload's full-size build has the size ladder that run.py reports.

    python3 perfbench/run.py --selftest
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil

import gen
import oracles


def _wrap_first_term(out: str) -> str:
    """Put one more symbol on top of the first term that has one."""
    lines = out.splitlines()
    for i, line in enumerate(lines):
        name, sep, term = line.partition(" = ")
        m = re.search(r"([^\s(),.]+)\(", term)
        if sep and m:
            lines[i] = f"{name} = {m.group(1)}({term})"
            break
    return "\n".join(lines) + "\n"


def _rename_root_symbol(out: str) -> str:
    doc = json.loads(out)
    entry = doc["variables"][0]
    state = entry["states"][entry["root"]]
    if "op" in state:
        state["op"] += "x"
    else:
        state["param"] += "x"
    return json.dumps(doc)


def _change_first_value(out: str) -> str:
    lines = out.splitlines()
    if " leaf " in lines[0]:
        lines[0] += "x"
    else:
        lines[0] = re.sub(r"\((.)", r"(\1\1", lines[0], count=1)
    return "\n".join(lines) + "\n"


def _drop_last_name(out: str) -> str:
    lines = out.splitlines()
    lines[-1] = lines[-1].rsplit(" ", 1)[0]
    return "\n".join(lines) + "\n"


def _flip_verdict(out: str) -> str:
    word = oracles.leading_word(out)
    other = {"equal": "distinct", "distinct": "equal", "holds": "fails", "fails": "holds"}[word]
    return out.replace(word, other, 1)


def _merge_first_classes(out: str) -> str:
    lines = out.splitlines()
    return "\n".join([lines[0] + lines[1]] + lines[2:]) + "\n"


def _bump_first_arity(out: str) -> str:
    return re.sub(r":(\d)", lambda m: f":{int(m.group(1)) + 1}", out, count=1)


def _bump_solution_count(out: str) -> str:
    if not out.startswith("fails"):
        return _flip_verdict(out)
    return re.sub(r"has (\d+) solutions", lambda m: f"has {int(m.group(1)) + 1} solutions", out, count=1)


CORRUPT = {
    "solve": _wrap_first_term,
    "solve_json": _rename_root_symbol,
    "decompose": _change_first_value,
    "classify": _drop_last_name,
    "equal": _flip_verdict,
    "quotient": _merge_first_classes,
    "reduce": _bump_first_arity,
    "check_cor": _bump_solution_count,
    "check_cia": _bump_solution_count,
}


def _corrupt_modulo(op: gen.Op, out: str) -> str:
    # `unknown` is accepted either way, so claim the decided verdict that
    # the pair's construction rules out.
    return "distinct: x\n" if op.check.keywords["same"] else "equal\n"


def run(main, workdir: str) -> int:
    problems = []
    checked = 0
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        for name in gen.WORKLOADS:
            full = gen.build(name, 7, os.path.join(workdir, name + "-full"))
            if gen.ladder(full) != gen.LADDERS[name]:
                problems.append(f"{name}: built ladder {gen.ladder(full)} != declared {gen.LADDERS[name]}")
            workload = gen.build(name, 7, os.path.join(workdir, name), tiny=True)
            for op in workload.ops:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = main(op.argv)
                text = out.getvalue()
                try:
                    verdict = op.check(text)
                except oracles.Wrong as e:
                    problems.append(f"{op.name}: real output rejected: {e}")
                    continue
                if code in (2, 3):
                    problems.append(f"{op.name}: exit {code}")
                corrupt = _corrupt_modulo(op, text) if op.label == "equal_pres" else CORRUPT[op.label](text)
                try:
                    op.check(corrupt)
                    problems.append(f"{op.name}: corrupted output accepted")
                except (oracles.Wrong, ValueError, KeyError, IndexError):
                    pass
                checked += 1
                print(f"ok {name:10s} {op.name:36s} {verdict}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"PROBLEM {p}")
    print(f"selftest: {checked} ops checked, {len(problems)} problems")
    return 1 if problems else 0
