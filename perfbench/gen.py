"""Seeded workloads: input files for corec's CLI plus the answer each op must give.

A workload is built from its seed alone.  The seed picks names, equation
order, marked positions, random graph shapes and algebra tables; the size
ladder and op mix are fixed per workload, so seeds change the inputs but not
how much work a round holds.  Expected answers come from the construction
(closed forms, equal/distinct labels, orbit counts, the fixed-point product
rule) and are checked by oracles.py without calling corec.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import oracles as O

LETTERS = "abcdefghjnpqrw"


@dataclass
class Op:
    """One CLI call of a round: `corec <argv>` and the check of its stdout."""

    name: str  # unique within the workload, e.g. "solve_json.cycle.n64"
    label: str  # the command as the size ladder groups it, e.g. "solve_json"
    size: int
    argv: list[str]
    check: Callable[[str], str]
    repeat: int = 1  # how many times one round runs this op


@dataclass
class Workload:
    name: str
    ops: list[Op]


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _names(rng: random.Random, n: int, prefix: str) -> list[str]:
    return [f"{prefix}{i}" for i in rng.sample(range(10 * n), n)]


def _ceq(signature: str, params: list[str], eqs: list[tuple[str, str]], root: str | None) -> str:
    out = [f"signature {signature}"]
    if params:
        out.append("params " + " ".join(params))
    out += [f"eq {x} = {body}" for x, body in eqs]
    if root is not None:
        out.append(f"root {root}")
    return "\n".join(out) + "\n"


# --- solve-deep: unary chains, marked cycles, lassos ------------------------

def unary_family(rng: random.Random, family: str, n: int):
    """A unary system of n variables with each variable's closed-form value.

    chain: x_i = f(x_{i+1}), the last one a constant; cycle: a single cycle
    with one marked letter, so refinement needs about one round per state;
    lasso: a prefix of another letter into such a cycle, marked halfway
    round from the entry.  Only names and order depend on the seed, besides
    where the cycle's mark sits, which its symmetry makes irrelevant.
    Returns (ceq text, variable order in the file, values as solved, values
    as decomposed, classify's layers, infinite part, folded constants).
    """
    main, mark, lead, const = rng.sample(LETTERS, 4)
    names = _names(rng, n, "v")
    rhs: dict[str, str] = {}
    layers: list[set] = []
    folded: dict[str, str] = {}
    if family == "chain":
        letters = [main] * (n - 1)
        for i in range(n - 1):
            rhs[names[i]] = f"{letters[i]}({names[i + 1]})"
        rhs[names[-1]] = f"{const}()"
        signature = f"{main}:1 {const}:0"
        solved = {x: O.word_value(letters[i:], const) for i, x in enumerate(names)}
        decomposed = {x: O.word_value(letters[i:], "~" + const) for i, x in enumerate(names)}
        layers = [{names[n - 1 - j]} for j in range(n)]
        infinite: set = set()
        folded = {"~" + const: const}
    else:
        p = n // 2 if family == "lasso" else 0
        c = n - p
        cyc = [main] * c
        cyc[c // 2 if p else rng.randrange(c)] = mark
        for i in range(p):
            rhs[names[i]] = f"{lead}({names[i + 1]})"
        for j in range(c):
            rhs[names[p + j]] = f"{cyc[j]}({names[p + (j + 1) % c]})"
        signature = f"{main}:1 {mark}:1" + (f" {lead}:1" if p else "")
        solved = {names[i]: O.stream_value([lead] * (p - i), cyc) for i in range(p)}
        for j in range(c):
            solved[names[p + j]] = O.stream_value((), cyc[j:] + cyc[:j])
        decomposed = solved
        infinite = set(names)
    order = names[:]
    rng.shuffle(order)
    text = _ceq(signature, [], [(x, rhs[x]) for x in order], None)
    return text, order, solved, decomposed, layers, infinite, folded


def solve_deep(rng: random.Random, workdir: str, tiny: bool) -> Workload:
    # Text solves of the smallest chain and lasso, which cost within 5% of
    # each other, run six times per round and every other op once.  Of the
    # 46 ops of a round, 18 are cheaper and 16 dearer than that block of 12,
    # so the median sits well inside it; the 90th percentile falls among the
    # largest size's text solves of a chain and a lasso, also within 5%.
    sizes = [6, 12] if tiny else LADDERS["solve-deep"]["solve"]
    ops = []
    for family in ("chain", "cycle", "lasso"):
        for n in sizes:
            repeat = 6 if n == sizes[0] and family != "cycle" and not tiny else 1
            text, order, solved, decomposed, layers, infinite, folded = unary_family(rng, family, n)
            path = _write(workdir, f"{family}{n}.ceq", text)
            tag = f"{family}.n{n}"
            ops += [
                Op(f"solve.{tag}", "solve", n, ["solve", path],
                   partial(O.check_solve_text, expected=solved, order=order), repeat),
                Op(f"solve_json.{tag}", "solve_json", n, ["--format", "json", "solve", path],
                   partial(O.check_solve_json, expected=solved, order=order)),
                Op(f"decompose.{tag}", "decompose", n, ["decompose", path],
                   partial(O.check_decompose, expected=decomposed, order=order, folded=folded)),
                Op(f"classify.{tag}", "classify", n, ["classify", path],
                   partial(O.check_classify, layers=layers, infinite=infinite)),
            ]
    return Workload("solve-deep", ops)


# --- equal-wide: random k-ary systems, equal or distinct by construction -----

WIDE_ARITIES = ((2, 0.45), (3, 0.25), (1, 0.30))  # (arity, share) of operation steps


def random_system(rng: random.Random, n: int, params: list[str]):
    """Random k-ary system: rhs per variable, as ("param", p) or (symbol, atoms).

    One variable in sixteen is a sink (three in four a parameter, else the
    constant).  The first argument of every other variable follows one
    random cycle through all of them, so each variable reaches the whole
    system and every solved tree has about n states; the other arguments
    are random variables, or a parameter one time in ten.
    """
    symbols = rng.sample(LETTERS, len(WIDE_ARITIES) + 1)
    arity = {s: a for s, (a, _) in zip(symbols, WIDE_ARITIES)}
    const = symbols[-1]
    arity[const] = 0
    weights = [w for _, w in WIDE_ARITIES]
    names = _names(rng, n, "x")
    sinks = set(names[1:][: n // 16])
    ring = [x for x in names if x not in sinks]
    succ = {x: ring[(i + 1) % len(ring)] for i, x in enumerate(ring)}
    rhs: dict[str, tuple] = {}
    for i, x in enumerate(sorted(sinks)):
        rhs[x] = ("param", rng.choice(params)) if i % 4 != 3 else (const, ())
    # Each symbol gets its share of the steps exactly, in seeded positions.
    heads = [s for s, w in zip(symbols, weights) for _ in range(round(w * len(ring)))]
    heads = (heads + [symbols[0]] * len(ring))[: len(ring)]
    rng.shuffle(heads)
    wide = []
    for x, s in zip(ring, heads):
        rhs[x] = (s, [("v", succ[x])] + [
            ("p", rng.choice(params)) if rng.random() < 0.1 else ("v", rng.choice(names))
            for _ in range(arity[s] - 1)
        ])
        if arity[s] > 1:
            wide.append(x)
    # Every sink is some variable's argument, so every sink is reachable.
    for sink, x in zip(sorted(sinks), rng.sample(wide, len(sinks))):
        rhs[x][1][1] = ("v", sink)
    for x in ring:
        atoms = rhs[x][1]
        rng.shuffle(atoms)
        rhs[x] = (rhs[x][0], tuple(atoms))
    return names, arity, rhs


def _reachable(rhs: dict, root: str) -> list[str]:
    order, seen = [root], {root}
    for x in order:
        if rhs[x][0] != "param":
            for kind, a in rhs[x][1]:
                if kind == "v" and a not in seen:
                    seen.add(a)
                    order.append(a)
    return order


def _render(rhs: dict, order: list[str]) -> list[tuple[str, str]]:
    out = []
    for x in order:
        r = rhs[x]
        out.append((x, r[1] if r[0] == "param" else f"{r[0]}({', '.join(a for _, a in r[1])})"))
    return out


def bisimilar_copy(rng: random.Random, rhs: dict, root: str, duplicate: float):
    """A bisimilar system: some variables duplicated, every variable renamed.

    Each use of a duplicated variable picks one of its copies at random.
    Returns (copy rhs, copy root, map from each original to all its copies).
    """
    names = list(rhs)
    dups = rng.sample(names, int(len(names) * duplicate))
    copies = {x: [x] for x in names}
    out = dict(rhs)
    for x in dups:
        twin = x + "d"
        out[twin] = rhs[x]
        copies[x].append(twin)
    for x, r in list(out.items()):
        if r[0] != "param":
            out[x] = (r[0], tuple(
                ("v", rng.choice(copies[a])) if kind == "v" else (kind, a) for kind, a in r[1]
            ))
    fresh = _names(rng, len(out), "w")
    rename = dict(zip(out, fresh))

    def atom(kind, a):
        return (kind, rename[a]) if kind == "v" else (kind, a)

    renamed = {
        rename[x]: r if r[0] == "param" else (r[0], tuple(atom(*a) for a in r[1]))
        for x, r in out.items()
    }
    images = {x: [rename[c] for c in cs] for x, cs in copies.items()}
    return renamed, rename[root], images


def equal_wide_pair(rng: random.Random, n: int, same: bool) -> tuple[str, str]:
    params = ["y1", "y2", "y3"]
    names, arity, rhs = random_system(rng, n, params)
    root = names[0]
    leaves = [x for x in _reachable(rhs, root) if rhs[x][0] == "param"]
    copy, copy_root, images = bisimilar_copy(rng, rhs, root, duplicate=1 / 16)
    b_params = params
    if not same:
        target = rng.choice(leaves)
        for img in images[target]:
            copy[img] = ("param", "yfresh")
        b_params = params + ["yfresh"]
    signature = " ".join(f"{s}:{a}" for s, a in arity.items())
    a_order = names[:]
    rng.shuffle(a_order)
    b_order = list(copy)
    rng.shuffle(b_order)
    left = _ceq(signature, params, _render(rhs, a_order), root)
    right = _ceq(signature, b_params, _render(copy, b_order), copy_root)
    return left, right


def equal_wide(rng: random.Random, workdir: str, tiny: bool) -> Workload:
    # Pair counts 3:6:3 put the median inside the middle size class and the
    # 90th percentile inside the largest.
    sizes = [16, 32] if tiny else LADDERS["equal-wide"]["equal"]
    pairs = [1, 1] if tiny else [3, 6, 3]
    ops = []
    for n, count in zip(sizes, pairs):
        for i in range(count):
            for same in (True, False):
                left, right = equal_wide_pair(rng, n, same)
                tag = f"n{n}.{'eq' if same else 'ne'}{i}"
                a = _write(workdir, f"wide.{tag}.a.ceq", left)
                b = _write(workdir, f"wide.{tag}.b.ceq", right)
                ops.append(Op(f"equal.{tag}", "equal", n, ["equal", a, b],
                              partial(O.check_equal, same=same)))
    return Workload("equal-wide", ops)


# --- modulo: presentations with commutativity, idempotence, cyclic ternary --

def modulo_signature(rng: random.Random) -> tuple[str, str, str]:
    return tuple(rng.sample(LETTERS, 3))  # binary u, unary s, ternary t


def modulo_pres(u: str, s: str, t: str) -> str:
    return (
        f"signature {u}:2 {s}:1 {t}:3\n"
        f"axiom {u}(p, q) = {u}(q, p)\n"
        f"axiom {u}(p, p) = {s}(p)\n"
        f"axiom {t}(p, q, r) = {t}(q, r, p)\n"
    )


def modulo_pair(rng: random.Random, n: int, syms, same: bool) -> tuple[str, str]:
    """Two n-state rational trees, equal modulo the axioms or not.

    As in random_system, the first argument of each step follows one cycle
    through all non-leaf variables, so every cut level is full.  The copy
    swaps binary arguments, rotates ternary ones and writes some unary steps
    s(x) as u(x, x).  In an unequal copy the leaf under the root gets a fresh
    parameter, which no axiom can remove.
    """
    u, s, t = syms
    arity = {u: 2, s: 1, t: 3}
    names = _names(rng, n, "z")
    sinks = names[1: 1 + max(1, n // 10)]
    ring = [names[0]] + names[1 + len(sinks):]
    succ = {x: ring[(i + 1) % len(ring)] for i, x in enumerate(ring)}
    rhs: dict[str, tuple] = {x: ("param", "y1") for x in sinks}
    # A fixed shape, so that the cost of a pair hardly depends on the seed:
    # heads repeat u, s, u, t along the cycle and the extra arguments point
    # 5 and 11 steps ahead.  The seed picks names, order, swaps and rotations.
    for i, x in enumerate(ring):
        head = (u, s, u, t)[i % 4]
        atoms = [("v", ring[(i + j) % len(ring)]) for j in (1, 5, 11)[: arity[head]]]
        if i == 0:
            atoms[1] = ("v", sinks[0])
        rhs[x] = (head, tuple(atoms))
    root = names[0]
    copy, copy_root, images = bisimilar_copy(rng, rhs, root, duplicate=0)
    # Half the binary steps swap, every ternary step rotates by one or two
    # places, half the unary steps become u(x, x): fixed shares, seeded picks.
    by_head = {h: sorted(x for x, r in copy.items() if r[0] == h) for h in (u, s, t)}
    for x in rng.sample(by_head[u], len(by_head[u]) // 2):
        copy[x] = (u, copy[x][1][::-1])
    for x in by_head[t]:
        k = rng.choice((1, 2))
        copy[x] = (t, copy[x][1][k:] + copy[x][1][:k])
    for x in rng.sample(by_head[s], len(by_head[s]) // 2):
        copy[x] = (u, copy[x][1] * 2)
    params = ["y1", "y2"]
    if not same:
        copy[images[sinks[0]][0]] = ("param", "yfresh")
    signature = f"{u}:2 {s}:1 {t}:3"
    a_order, b_order = list(rhs), list(copy)
    rng.shuffle(a_order)
    rng.shuffle(b_order)
    left = _ceq(signature, params, _render(rhs, a_order), root)
    right = _ceq(signature, params + (["yfresh"] if not same else []), _render(copy, b_order), copy_root)
    return left, right


def orbit_key(syms, term):
    """Class of a flat term under the three axioms: sorted pair, u(a,a)~s(a), rotations."""
    u, s, t = syms
    head, args = term
    if head == u:
        return (s, args[0]) if args[0] == args[1] else (u,) + tuple(sorted(args))
    if head == t:
        return (t,) + min(args[k:] + args[:k] for k in range(3))
    return (head,) + args


def quotient_count(n: int) -> int:
    # u: unordered pairs of distinct atoms; u(a,a) joins s(a); t: (n^3 + 2n)/3 orbits.
    return n * (n - 1) // 2 + n + (n**3 + 2 * n) // 3


def reduce_case(rng: random.Random):
    """A presentation with one duplicate binary symbol and one inessential coordinate.

    Symbols: a commutative binary `a`, a binary `b` with b(p, q) = a(q, p),
    a binary `c` blind to its second argument, and a plain unary `d`.  The
    reduced signature keeps the lesser of a and b at arity 2, c at arity 1
    and d at arity 1.
    """
    a, b, c, d = rng.sample(LETTERS, 4)
    keep = min(a, b)
    text = (
        f"signature {a}:2 {b}:2 {c}:2 {d}:1\n"
        f"axiom {a}(p, q) = {a}(q, p)\n"
        f"axiom {b}(p, q) = {a}(q, p)\n"
        f"axiom {c}(p, q) = {c}(p, r)\n"
    )
    signature = {keep: 2, c: 1, d: 1}
    translation = {a: (keep, (0, 1)), b: (keep, (0, 1)), c: (c, (0,)), d: (d, (0,))}
    return text, signature, translation


# corec's default, passed explicitly so that COREC_BUDGET cannot change a run.
MODULO_BUDGET = str(10**6)


def modulo(rng: random.Random, workdir: str, tiny: bool) -> Workload:
    # Pair counts 22:4:2 put the median inside the k=8 class and the 90th
    # percentile inside the unequal k=16 pairs; a k=32 pair costs six k=16 ones.
    depths = [2, 4] if tiny else LADDERS["modulo"]["equal_pres"]
    pairs = [1, 1] if tiny else [22, 4, 2]
    atoms = [2, 3] if tiny else LADDERS["modulo"]["quotient"]
    tree_states = 12 if tiny else 16
    ops = []
    syms = modulo_signature(rng)
    pres = _write(workdir, "modulo.pres", modulo_pres(*syms))
    for k, count in zip(depths, pairs):
        for i in range(count):
            for same in (True, False):
                left, right = modulo_pair(rng, tree_states, syms, same)
                tag = f"n{k}.{'eq' if same else 'ne'}{i}"
                a = _write(workdir, f"mod.{tag}.a.ceq", left)
                b = _write(workdir, f"mod.{tag}.b.ceq", right)
                ops.append(Op(f"equal_pres.{tag}", "equal_pres", k,
                              ["-k", str(k), "--budget", MODULO_BUDGET, "equal", a, b, "--pres", pres],
                              partial(O.check_equal_modulo, same=same)))
    for n in atoms:
        terms = n * n + n + n**3
        ops.append(Op(f"quotient.n{n}", "quotient", n,
                      ["--budget", MODULO_BUDGET, "quotient", pres, "--atoms", str(n)],
                      partial(O.check_quotient, key=partial(orbit_key, syms),
                              count=quotient_count(n), terms=terms)))
    text, signature, translation = reduce_case(rng)
    red = _write(workdir, "reduce.pres", text)
    ops.append(Op("reduce.n4", "reduce", 4, ["--budget", MODULO_BUDGET, "reduce", red],
                  partial(O.check_reduce, signature=signature, translation=translation)))
    return Workload("modulo", ops)


# --- sweep: uniqueness sweeps over small algebras ---------------------------

def ranked_unary(rng: random.Random, n: int, symbols: list[str], cycle: bool) -> dict:
    """Unary tables that send every element strictly down a random ranking.

    The least element is fixed by every symbol, so every composite map has
    exactly one fixed point and the sweep holds.  With `cycle`, the first
    symbol swaps the two highest elements instead: it still has one fixed
    point, its square has three, and the sweep fails at two variables.
    """
    rank = [str(i) for i in range(n)]
    rng.shuffle(rank)
    tables = {}
    for f in symbols:
        table = {rank[0]: rank[0]}
        for i in range(1, n):
            table[rank[i]] = rank[rng.randrange(i)]
        tables[f] = table
    if cycle:
        hi, lo = rank[-1], rank[-2]
        tables[symbols[0]][hi], tables[symbols[0]][lo] = lo, hi
    return tables


def word_rule_holds(tables: dict, carrier: list, max_vars: int) -> bool:
    """Uniqueness up to max_vars variables: every word up to that length has one fixed point."""
    for length in range(1, max_vars + 1):
        for word in itertools.product(list(tables), repeat=length):
            if O.fixed_points([tables[f] for f in word], carrier) != 1:
                return False
    return True


def falg_text(symbols: dict, carrier: list, tables: dict) -> str:
    out = ["signature " + " ".join(f"{f}:{a}" for f, a in symbols.items()),
           "carrier " + " ".join(carrier)]
    for f, table in tables.items():
        for args, v in table.items():
            out.append(f"table {f}: {' '.join(args)} -> {v}")
    return "\n".join(out) + "\n"


def sweep_space(arities: list[int], n: int, max_vars: int, cia: bool) -> int:
    """Systems times assignments a brute-force sweep visits, up to max_vars variables."""
    total = 0
    for m in range(1, max_vars + 1):
        options = sum(m**a for a in arities) + (n if cia else 0)
        total += options**m * n**m
    return total


def sweep_case(rng: random.Random, kind: str, n: int, nsym: int, max_vars: int, cia: bool):
    carrier = [str(i) for i in range(n)]
    names = rng.sample(LETTERS, nsym)
    if kind == "binary":
        # One binary symbol whose table is constant: every system is solved
        # by that constant alone, with or without parameters.
        value = rng.choice(carrier)
        tables = {names[0]: {(a, b): value for a in carrier for b in carrier}}
        text = falg_text({names[0]: 2}, carrier, tables)
        holds, unary = True, None
        arities = [2]
    else:
        unary = ranked_unary(rng, n, names, cycle=kind == "cycle")
        text = falg_text({f: 1 for f in names}, carrier,
                         {f: {(a,): v for a, v in t.items()} for f, t in unary.items()})
        holds = word_rule_holds(unary, carrier, max_vars)
        arities = [1] * nsym
    return text, holds, unary, carrier, sweep_space(arities, n, max_vars, cia)


# (kind, carrier size, symbol count, max_vars, repeats per round of the
# --corecursive op, of the --cia op).  The max_vars classes take similar
# shares of a round's time.  The ops cheaper than the constant-table --cia
# sweep and those dearer number twelve each, so the median falls inside that
# sweep's block of ten, whose cost hardly depends on the seed.
SWEEP_CASES = [
    ("cycle", 3, 2, 3, 1, 1), ("cycle", 4, 2, 4, 1, 1), ("cycle", 3, 1, 5, 1, 1),
    ("ranked", 4, 2, 3, 2, 2), ("ranked", 3, 1, 4, 2, 2), ("binary", 2, 1, 3, 2, 10),
    ("ranked", 2, 2, 4, 2, 2), ("ranked", 2, 1, 5, 2, 2),
]
TINY_SWEEP_CASES = [
    ("ranked", 3, 2, 2, 1, 1), ("binary", 2, 1, 2, 1, 1), ("cycle", 3, 2, 2, 1, 1),
    ("ranked", 2, 1, 3, 1, 1), ("cycle", 3, 1, 3, 1, 1),
]


def sweep(rng: random.Random, workdir: str, tiny: bool) -> Workload:
    ops = []
    for i, (kind, n, nsym, max_vars, *repeats) in enumerate(TINY_SWEEP_CASES if tiny else SWEEP_CASES):
        for cia, repeat in zip((False, True), repeats):
            text, holds, unary, carrier, space = sweep_case(rng, kind, n, nsym, max_vars, cia)
            path = _write(workdir, f"alg{i}.{'cia' if cia else 'cor'}.falg", text)
            label = "check_cia" if cia else "check_cor"
            flag = "--cia" if cia else "--corecursive"
            # Four times the brute-force space: room for any sweep that visits less.
            ops.append(Op(
                f"{label}.{kind}{n}x{nsym}.n{max_vars}", label, max_vars,
                ["--budget", str(4 * space), "check", flag, path, str(max_vars)],
                partial(O.check_sweep, holds=holds, tables=unary, carrier=carrier),
                repeat,
            ))
    return Workload("sweep", ops)


# Sizes per command label, smallest first: chain/cycle/lasso variables,
# system variables, cut depth k, atoms, max_vars.
LADDERS = {
    "solve-deep": {label: [20, 40, 80] for label in ("solve", "solve_json", "decompose", "classify")},
    "equal-wide": {"equal": [24, 48, 96]},
    "modulo": {"equal_pres": [8, 16, 32], "quotient": [4, 8, 16], "reduce": [4]},
    "sweep": {label: sorted({c[3] for c in SWEEP_CASES}) for label in ("check_cor", "check_cia")},
}

WORKLOADS = {
    "solve-deep": solve_deep,
    "equal-wide": equal_wide,
    "modulo": modulo,
    "sweep": sweep,
}


def build(workload: str, seed: int, workdir: str, tiny: bool = False) -> Workload:
    """Write the workload's input files into workdir and return its ops."""
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[workload](rng, workdir, tiny)


def ladder(workload: Workload) -> dict[str, list[int]]:
    """Sizes per command label, smallest first."""
    out: dict[str, set] = {}
    for op in workload.ops:
        out.setdefault(op.label, set()).add(op.size)
    return {label: sorted(sizes) for label, sizes in out.items()}
