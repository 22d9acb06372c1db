"""Readers for corec's outputs and the checks against closed-form answers.

Nothing here imports corec: every expected answer comes from how the input
was generated (see gen.py), and every output is parsed by this module's own
small readers.  A check returns the leading verdict word of the output and
raises Wrong when the output contradicts the expected answer.
"""

from __future__ import annotations

import json
import re


class Wrong(Exception):
    """An output that contradicts the answer known from the input's construction."""


def leading_word(stdout: str) -> str:
    """The first word of the output, without a trailing colon."""
    words = stdout.split(None, 1)
    return words[0].rstrip(":") if words else ""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Wrong(message)


# --- unary values: finite words and eventually periodic streams -------------

def norm_lasso(prefix, period) -> tuple[tuple, tuple]:
    """Normal form of the stream prefix.period^w: primitive period, shortest prefix."""
    prefix, period = list(prefix), list(period)
    n = len(period)
    for d in range(1, n + 1):
        if n % d == 0 and period == period[:d] * (n // d):
            period = period[:d]
            break
    while prefix and prefix[-1] == period[-1]:
        period = [period[-1]] + period[:-1]
        prefix.pop()
    return tuple(prefix), tuple(period)


def word_value(word, leaf: str) -> tuple:
    return ("word", tuple(word), leaf)


def stream_value(prefix, period) -> tuple:
    return ("stream",) + norm_lasso(prefix, period)


def min_states(value: tuple) -> int:
    """States of the smallest system for a unary value (a leaf counts as one)."""
    if value[0] == "word":
        return len(value[1]) + 1
    return len(value[1]) + len(value[2])


_MU_TOKEN = re.compile(
    r"\s*(?:mu\s+(?P<bind>[^\s(),.]+)\.|(?P<open>[^\s(),.]+)\(|(?P<name>[^\s(),.]+)|(?P<close>\)))"
)


def parse_mu_unary(text: str) -> tuple[tuple, int]:
    """Read a unary term in binder notation; return its value and symbol count.

    Accepts `f(g(y))`, `f(mu s0. g(f(s0)))` and the like, whatever the binder
    names are.  Constants print as bare names and read as leaves.
    """
    letters: list[str] = []
    binders: dict[str, int] = {}
    value = None
    closes = 0
    pos = 0
    while pos < len(text):
        m = _MU_TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip():
                raise Wrong(f"cannot read term at {text[pos:pos + 20]!r}")
            break
        pos = m.end()
        if m.group("close"):
            closes += 1
            continue
        expect(value is None, f"term continues after its end: {text!r}")
        if m.group("bind"):
            binders[m.group("bind")] = len(letters)
        elif m.group("open"):
            letters.append(m.group("open"))
        else:
            name = m.group("name")
            if name in binders:
                entry = binders[name]
                value = stream_value(letters[:entry], letters[entry:])
            else:
                value = word_value(letters, name)
    expect(value is not None, f"term has no end: {text!r}")
    expect(closes == len(letters), f"unbalanced parentheses in {text!r}")
    return value, len(letters)


def tree_json_value(entry: dict) -> tuple[tuple, int]:
    """Read a unary tree from solve's JSON; return its value and state count."""
    states = entry["states"]
    s = entry["root"]
    seen: dict[int, int] = {}
    letters: list[str] = []
    while s not in seen:
        seen[s] = len(letters)
        st = states[s]
        if "param" in st:
            return word_value(letters, st["param"]), len(states)
        if not st["children"]:
            return word_value(letters, st["op"]), len(states)
        letters.append(st["op"])
        s = st["children"][0]
    entry_index = seen[s]
    return stream_value(letters[:entry_index], letters[entry_index:]), len(states)


def _letters(text: str) -> list[str]:
    # Generated signatures use one-character symbol names, which corec prints
    # without separators; longer names would be printed space-separated.
    return text.split() if " " in text else list(text)


_FINITE = re.compile(r'^(\S+) : finite word "(.*)" leaf (\S+)$')
_STREAM = re.compile(r"^(\S+) : stream (.*)\((.*)\)\^w$")


# --- solve-deep checks ------------------------------------------------------

def check_solve_text(stdout: str, expected: dict, order: list) -> str:
    lines = stdout.splitlines()
    expect(len(lines) == len(order), f"{len(lines)} lines for {len(order)} variables")
    for line, x in zip(lines, order):
        name, sep, term = line.partition(" = ")
        expect(sep and name == x, f"expected variable {x}, got {line[:40]!r}")
        value, count = parse_mu_unary(term)
        expect(value == expected[x], f"{x}: wrong tree")
        want = min_states(expected[x]) - (value[0] == "word")
        expect(count == want, f"{x}: {count} symbols, minimal tree has {want}")
    return "solved"


def check_solve_json(stdout: str, expected: dict, order: list) -> str:
    doc = json.loads(stdout)
    entries = doc["variables"]
    expect([e["name"] for e in entries] == order, "variables out of order")
    for e in entries:
        expect(e["kind"] == "tree", f"{e['name']}: kind {e['kind']}")
        value, count = tree_json_value(e)
        expect(value == expected[e["name"]], f"{e['name']}: wrong tree")
        want = min_states(expected[e["name"]])
        expect(count == want, f"{e['name']}: {count} states, minimal tree has {want}")
    return "solved"


def check_decompose(stdout: str, expected: dict, order: list, folded: dict) -> str:
    lines = stdout.splitlines()
    if folded:
        notes = " ".join(f"{k}={v}()" for k, v in sorted(folded.items()))
        expect(lines and lines[-1] == f"# folded constants: {notes}", "missing fold note")
        lines = lines[:-1]
    expect(len(lines) == len(order), f"{len(lines)} lines for {len(order)} variables")
    for line, x in zip(lines, order):
        m = _FINITE.match(line)
        if m:
            value = word_value(m.group(2).split(), m.group(3))
        else:
            m = _STREAM.match(line)
            expect(m is not None, f"cannot read {line[:40]!r}")
            value = stream_value(_letters(m.group(2)), _letters(m.group(3)))
        expect(m.group(1) == x, f"expected variable {x}, got {m.group(1)}")
        expect(value == expected[x], f"{x}: wrong value")
    return "decomposed"


def check_classify(stdout: str, layers: list, infinite: set) -> str:
    lines = stdout.splitlines()
    expect(len(lines) == len(layers) + 1, f"{len(lines) - 1} layers, expected {len(layers)}")
    for i, (line, layer) in enumerate(zip(lines, layers), start=1):
        head, _, names = line.partition(": ")
        expect(head == f"layer {i}" and set(names.split()) == layer, f"layer {i} differs")
    head, _, names = lines[-1].partition(": ")
    got = set() if names == "(none)" else set(names.split())
    expect(head == "infinite" and got == infinite, "infinite part differs")
    return "classified"


# --- equal checks -----------------------------------------------------------

def check_equal(stdout: str, same: bool) -> str:
    """Plain bisimulation equality always decides."""
    word = leading_word(stdout)
    expect(word in ("equal", "distinct"), f"verdict {word!r}")
    expect((word == "equal") == same, f"said {word}, pair is {'equal' if same else 'distinct'}")
    return word


def check_equal_modulo(stdout: str, same: bool) -> str:
    """Modulo a presentation `unknown` is allowed; the wrong decided verdict is not."""
    word = leading_word(stdout)
    expect(word in ("equal", "distinct", "unknown"), f"verdict {word!r}")
    wrong = "distinct" if same else "equal"
    expect(word != wrong, f"said {word}, pair is {'equal' if same else 'distinct'}")
    return word


# --- presentation checks ----------------------------------------------------

_FLAT = re.compile(r"([^\s(),{}]+)\(([^()]*)\)")


def read_flat_terms(text: str) -> list[tuple[str, tuple[str, ...]]]:
    return [
        (head, tuple(a.strip() for a in args.split(",")) if args.strip() else ())
        for head, args in _FLAT.findall(text)
    ]


def check_quotient(stdout: str, key, count: int, terms: int) -> str:
    """Classes must be exactly the orbits named by `key` on all flat terms."""
    lines = stdout.splitlines()
    expect(lines and lines[-1] == f"count: {count}", f"last line {lines[-1:]}, expected count {count}")
    expect(len(lines) - 1 == count, f"{len(lines) - 1} class lines, expected {count}")
    seen_keys = set()
    total = 0
    for line in lines[:-1]:
        members = read_flat_terms(line)
        keys = {key(t) for t in members}
        expect(len(keys) == 1, f"class {line[:40]} mixes orbits")
        k = keys.pop()
        expect(k not in seen_keys, f"orbit {k} split over two classes")
        seen_keys.add(k)
        total += len(members)
    expect(total == terms, f"{total} terms listed, expected {terms}")
    return "quotient"


def check_reduce(stdout: str, signature: dict, translation: dict) -> str:
    """Reduced signature and each symbol's target and arity must match construction."""
    lines = stdout.splitlines()
    expect(lines and lines[0].startswith("signature "), "no signature line")
    got_sig = {}
    for token in lines[0].split()[1:]:
        name, _, arity = token.partition(":")
        got_sig[name] = int(arity)
    expect(got_sig == signature, f"reduced signature {got_sig}, expected {signature}")
    got = {}
    for line in lines[1:]:
        if line.startswith("axiom "):
            for head, args in read_flat_terms(line):
                expect(signature.get(head) == len(args), f"axiom over old signature: {line}")
            continue
        m = re.match(r"^# (\S+) -> (\S+) \[([0-9 ]*)\]$", line)
        expect(m is not None, f"cannot read {line!r}")
        got[m.group(1)] = (m.group(2), tuple(int(c) for c in m.group(3).split()))
    expect(set(got) == set(translation), "translation covers other symbols")
    for name, (target, positions) in translation.items():
        got_target, got_coords = got[name]
        expect(got_target == target, f"{name} goes to {got_target}, expected {target}")
        expect(
            sorted(got_coords) == sorted(positions) and len(got_coords) == signature[target],
            f"{name} embeds {got_coords}, expected a permutation of {positions}",
        )
    return "reduced"


# --- uniqueness sweep checks ------------------------------------------------

def fixed_points(maps: list[dict], carrier: list) -> int:
    """Fixed points of the composite of unary maps (applied last to first)."""
    count = 0
    for a in carrier:
        v = a
        for f in reversed(maps):
            v = f[v]
        count += v == a
    return count


def unary_solution_count(rhs: dict, tables: dict, carrier: list) -> int:
    """Solutions of an all-unary system by the product rule.

    Each variable points at one successor (or is a parameter), so the
    variables form a functional graph; values off the cycles are forced, and
    each cycle contributes the fixed points of the maps composed around it.
    """
    total = 1
    done: set[str] = set()
    for start in rhs:
        path: list[str] = []
        on_path: dict[str, int] = {}
        x = start
        while x not in done and x not in on_path and rhs[x][0] == "op":
            on_path[x] = len(path)
            path.append(x)
            x = rhs[x][2]
        if x in on_path:
            cycle = path[on_path[x]:]
            total *= fixed_points([tables[rhs[v][1]] for v in cycle], carrier)
        done.update(path)
    return total


def read_witness(lines: list[str]) -> tuple[dict, dict]:
    """The witness system (variable -> ("op", symbol, successor) or ("param", p)) and valuation."""
    rhs: dict[str, tuple] = {}
    valuation: dict[str, str] = {}
    for line in lines:
        if line.startswith("eq "):
            x, _, body = line[3:].partition(" = ")
            terms = read_flat_terms(body)
            if terms:
                head, args = terms[0]
                expect(len(args) == 1, f"non-unary witness equation {line!r}")
                rhs[x] = ("op", head, args[0])
            else:
                rhs[x] = ("param", body.strip())
        elif line.startswith("valuation: "):
            for item in line.split()[1:]:
                k, _, v = item.partition("=")
                valuation[k] = v
    return rhs, valuation


def check_sweep(stdout: str, holds: bool, tables: dict | None, carrier: list) -> str:
    """Verdict from the word rule; a unary witness must have the solution count it claims."""
    word = leading_word(stdout)
    expect(word in ("holds", "fails"), f"verdict {word!r}")
    expect((word == "holds") == holds, f"said {word}, expected {'holds' if holds else 'fails'}")
    if word == "fails" and tables is not None:
        lines = stdout.splitlines()
        m = re.match(r"fails: witness system has (\d+) solutions", lines[0])
        expect(m is not None, f"cannot read {lines[0]!r}")
        claimed = int(m.group(1))
        rhs, valuation = read_witness(lines[1:])
        expect(rhs, "witness has no equations")
        for r in rhs.values():
            expect(r[0] == "op" or r[1] in valuation, f"parameter {r[-1]} has no value")
        actual = unary_solution_count(rhs, tables, carrier)
        expect(claimed == actual and claimed != 1, f"witness claims {claimed} solutions, has {actual}")
    return word
