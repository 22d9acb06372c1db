"""File formats, emitters, and the command line driver.

Three line-based text formats (equation systems, presentations, finite
algebras), three output formats (human-readable text with binder notation
for cycles, DOT state graphs, JSON), and the `corec` command dispatcher.

Exit codes: 0 success, 1 failing/distinct verdict, 2 input error, 3 budget
exceeded, 4 unknown verdict (`equal --pres` could not decide).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys
from typing import Callable, Mapping, Sequence

from .checker import CheckVerdict, FiniteAlgebra, SpineWitness, is_cia, is_corecursive, witness_non_cia
from .core import (
    BOTTOM,
    BOTTOM_ALIAS,
    DEFAULT_BUDGET,
    EquationSystem,
    FlatTerm,
    Param,
    Signature,
    Var,
    is_reserved_name,
)
from .errors import (
    ArityMismatch,
    CorecError,
    IncompleteTable,
    ParseError,
    ReservedParameter,
    SizeLimitExceeded,
    UndeclaredName,
)
from .presentation import Presentation, Verdict3, quotient_classes, reduce_presentation, rtree_equiv_upto
from .rtree import Lasso, LeafStep, OpStep, RationalTree, _dfs, bisim_equal
from .solver import (
    Classification,
    DecomposedSolution,
    FinitePart,
    InfinitePart,
    classify,
    fold_constants,
    solve,
    solve_at,
    solve_decomposed,
)

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_TERM = re.compile(r"(?P<head>\S+?)\s*\(\s*(?P<args>[^()]*)\)\s*$")


def _check_name(token: str, line: int, what: str) -> str:
    if is_reserved_name(token):
        raise ReservedParameter(f"line {line}: {token!r} is reserved")
    if not _NAME.match(token):
        raise ParseError(f"invalid {what} name {token!r}", line)
    return token


def _lines(text: str):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line


def _parse_signature_tokens(tokens: Sequence[str], line: int) -> list[tuple[str, int]]:
    symbols = []
    for token in tokens:
        if ":" not in token:
            raise ParseError(f"expected name:arity, got {token!r}", line)
        name, _, arity = token.partition(":")
        _check_name(name, line, "symbol")
        if not arity.isdigit():
            raise ParseError(f"arity of {name!r} must be a number", line)
        symbols.append((name, int(arity)))
    return symbols


def _parse_file(
    text: str, handlers: Mapping[str, Callable[[int, str], None]]
) -> tuple[tuple[str, int], ...]:
    """Run each line's keyword handler in file order; return the declared symbols.

    Signature lines may appear anywhere and accumulate.  A handler gets the
    line number and the text after its keyword.
    """
    symbols: list[tuple[str, int]] | None = None
    for number, line in _lines(text):
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "signature":
            tokens = rest.split()
            if not tokens:
                raise ParseError("empty signature declaration", number)
            symbols = (symbols or []) + _parse_signature_tokens(tokens, number)
        elif keyword in handlers:
            handlers[keyword](number, rest)
        else:
            raise ParseError(f"unknown keyword {keyword!r}", number)
    if symbols is None:
        raise ParseError("missing signature declaration", 1)
    return tuple(symbols)


def _equation_sides(rest: str, line: int, usage: str) -> tuple[int, str, str]:
    lhs, eq, rhs = rest.partition("=")
    if not eq or not lhs.strip() or not rhs.strip():
        raise ParseError(f"expected `{usage}`", line)
    return line, lhs.strip(), rhs.strip()


def _parse_term(
    text: str, line: int, signature: Signature, atom: Callable[[str, int], object]
) -> FlatTerm | None:
    """``f(a1, ..., an)`` with a declared head and matching arity; None for other shapes.

    ``atom`` turns each argument name into the term's atom, raising on bad names.
    """
    m = _TERM.match(text)
    if m is None:
        return None
    head = m.group("head")
    if head not in signature:
        raise UndeclaredName(f"line {line}: undeclared symbol {head!r}")
    body = m.group("args").strip()
    args = tuple(atom(part.strip(), line) for part in body.split(",")) if body else ()
    arity = signature.arity(head)
    if len(args) != arity:
        raise ArityMismatch(
            f"line {line}: {head!r} has arity {arity}, got {len(args)} arguments"
        )
    return FlatTerm(head, args)


def parse_ceq_with_root(text: str) -> tuple[EquationSystem, str | None]:
    """Parse an equation system file; also return the declared root, if any."""
    parameters: list[str] = []
    equations: list[tuple[int, str, str]] = []
    declared: dict[str, str] = {}

    def params(number: int, rest: str) -> None:
        for token in rest.split():
            parameters.append(_check_name(token, number, "parameter"))

    handlers = {
        "params": params,
        "eq": lambda n, rest: equations.append(_equation_sides(rest, n, "eq <var> = <term>")),
        "root": lambda n, rest: declared.update(root=rest),
    }
    signature = Signature(_parse_file(text, handlers))
    variables = []
    for number, name, _ in equations:
        variables.append(_check_name(name, number, "variable"))
    varset, paramset = set(variables), set(parameters)

    def atom(name: str, line: int):
        name = _check_name(name, line, "atom")
        if name in varset:
            return Var(name)
        if name in paramset:
            return Param(name)
        raise UndeclaredName(f"line {line}: undeclared atom {name!r}")

    rhs: dict = {}
    for number, name, body in equations:
        if name in rhs:
            raise ParseError(f"second equation for {name!r}", number)
        term = _parse_term(body, number, signature, atom)
        if term is None:  # a bare right-hand side must name a parameter
            bare = _check_name(body, number, "parameter")
            if bare in paramset:
                term = Param(bare)
            elif bare in varset:
                raise ParseError(
                    f"{bare!r} is a variable; a bare right-hand side must be a parameter",
                    number,
                )
            else:
                raise UndeclaredName(f"line {number}: undeclared parameter {bare!r}")
        rhs[name] = term
    root = declared.get("root")
    if root is not None and root not in varset:
        raise UndeclaredName(f"root {root!r} is not a declared variable")
    system = EquationSystem(signature, tuple(variables), tuple(parameters), rhs)
    return system, root


def parse_ceq(text: str) -> EquationSystem:
    """Parse an equation system file."""
    return parse_ceq_with_root(text)[0]


def parse_pres(text: str) -> Presentation:
    """Parse a presentation file: a signature plus axiom lines."""
    pending: list[tuple[int, str, str]] = []

    def axiom(number: int, rest: str) -> None:
        pending.append(_equation_sides(rest, number, "axiom <term> = <term>"))

    signature = Signature(_parse_file(text, {"axiom": axiom}))

    def side(text: str, line: int) -> FlatTerm:
        term = _parse_term(
            text, line, signature, lambda name, at: _check_name(name, at, "variable")
        )
        if term is None:
            raise ParseError(f"expected a flat term, got {text!r}", line)
        return term

    axioms = [(side(lhs, number), side(rhs, number)) for number, lhs, rhs in pending]
    return Presentation(signature, tuple(axioms))


def parse_falg(text: str) -> FiniteAlgebra:
    """Parse a finite algebra file: signature, carrier, and table rows."""
    carrier: list[str] = []
    rows: dict[str, dict[tuple, str]] = {}

    def table(number: int, rest: str) -> None:
        head, colon, mapping = rest.partition(":")
        if not colon:
            raise ParseError("expected `table <symbol>: <args> -> <value>`", number)
        head = head.strip()
        args_text, arrow, value = mapping.partition("->")
        if not arrow:
            raise ParseError("table row needs `->`", number)
        args = tuple(args_text.split())
        value = value.strip()
        if not value or len(value.split()) != 1:
            raise ParseError("table row needs exactly one result", number)
        sym_rows = rows.setdefault(head, {})
        if args in sym_rows:
            raise ParseError(f"duplicate table row for {head!r} {args}", number)
        sym_rows[args] = value

    symbols = _parse_file(
        text, {"carrier": lambda n, rest: carrier.extend(rest.split()), "table": table}
    )
    if not carrier:
        raise ParseError("missing carrier declaration", 1)
    signature = Signature(symbols)
    for name, _ in signature.symbols:
        if name not in rows:
            raise IncompleteTable(f"no table rows for symbol {name!r}")
    return FiniteAlgebra(signature, tuple(carrier), rows)


def format_ceq(system: EquationSystem, root: str | None = None) -> str:
    """Serialize an equation system in the ceq format."""
    out = ["signature " + " ".join(f"{n}:{a}" for n, a in system.signature.symbols)]
    if system.parameters:
        out.append("params " + " ".join(system.parameters))
    for x in system.variables:
        r = system.rhs_of(x)
        if isinstance(r, Param):
            out.append(f"eq {x} = {r.name}")
        else:
            args = ", ".join(a.name for a in r.args)
            out.append(f"eq {x} = {r.head}({args})")
    if root is not None:
        out.append(f"root {root}")
    return "\n".join(out) + "\n"


def format_pres(presentation: Presentation) -> str:
    out = ["signature " + " ".join(f"{n}:{a}" for n, a in presentation.signature.symbols)]
    for left, right in presentation.axioms:
        out.append(f"axiom {left} = {right}")
    return "\n".join(out) + "\n"


def render_mu(tree: RationalTree) -> str:
    """Closed binder notation for a rational tree; binders only on cycles.

    Binder names are numbered in the order the binders are written.
    """
    cyclic = _dfs(tree.steps, tree.root)[1]
    names = itertools.count()
    out: list[str] = []
    work: list = [(tree.root, {})]  # (state, binder names in scope) or literal text
    while work:
        item = work.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        s, bound = item
        step = tree.steps[s]
        if s in bound:
            out.append(bound[s])
        elif isinstance(step, LeafStep):
            out.append(step.param)
        else:
            if s in cyclic:
                bound = {**bound, s: f"s{next(names)}"}
                out.append(f"mu {bound[s]}. ")
            if not step.children:
                out.append(step.symbol)
                continue
            out.append(f"{step.symbol}(")
            work.append(")")
            for i in reversed(range(len(step.children))):
                work.append((step.children[i], bound))
                if i:
                    work.append(", ")
    return "".join(out)


def _word_text(word: Sequence[str]) -> str:
    if all(len(w) == 1 for w in word):
        return "".join(word)
    return " ".join(word)


def render_decomposed_value(value) -> str:
    if isinstance(value, FinitePart):
        return f'finite word "{" ".join(value.word)}" leaf {value.leaf}'
    prefix = _word_text(value.lasso.prefix)
    period = _word_text(value.lasso.period)
    return f"stream {prefix}({period})^w"


def _tree_json(tree: RationalTree) -> dict:
    states = []
    for step in tree.steps:
        if isinstance(step, LeafStep):
            name = BOTTOM_ALIAS if step.param == BOTTOM else step.param
            states.append({"param": name})
        else:
            states.append({"op": step.symbol, "children": list(step.children)})
    return {"root": tree.root, "states": states}


def _signature_json(signature: Signature) -> list:
    return [[n, a] for n, a in signature.symbols]


def emit_solution(solution: Mapping[str, RationalTree], fmt: str) -> str:
    if fmt == "text":
        return "\n".join(f"{x} = {render_mu(t)}" for x, t in solution.items()) + "\n"
    if fmt == "json":
        trees = list(solution.values())
        doc = {
            "signature": _signature_json(trees[0].signature) if trees else [],
            "variables": [
                {"name": x, "kind": "tree", **_tree_json(t)}
                for x, t in solution.items()
            ],
        }
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "dot":
        lines = ["digraph solution {", "  rankdir=TB;"]
        for x, t in solution.items():
            entry = f'"{x}"'
            lines.append(f'  {entry} [shape=plaintext];')
            lines.append(f'  {entry} -> "{x}.0";')
            for i, step in enumerate(t.steps):
                node = f'"{x}.{i}"'
                if isinstance(step, LeafStep):
                    label = BOTTOM_ALIAS if step.param == BOTTOM else step.param
                    lines.append(f"  {node} [label=\"{label}\", shape=box];")
                else:
                    lines.append(f"  {node} [label=\"{step.symbol}\", shape=circle];")
                    for pos, c in enumerate(step.children, start=1):
                        lines.append(f'  {node} -> "{x}.{c}" [label="{pos}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def emit_decomposed(
    solution: DecomposedSolution, fmt: str, signature: Signature
) -> str:
    if fmt == "text":
        return (
            "\n".join(
                f"{x} : {render_decomposed_value(v)}" for x, v in solution.items()
            )
            + "\n"
        )
    if fmt == "json":
        variables = []
        for x, v in solution.items():
            if isinstance(v, FinitePart):
                variables.append(
                    {"name": x, "kind": "finite", "word": list(v.word), "leaf": v.leaf}
                )
            else:
                variables.append(
                    {
                        "name": x,
                        "kind": "stream",
                        "prefix": list(v.lasso.prefix),
                        "period": list(v.lasso.period),
                    }
                )
        doc = {"signature": _signature_json(signature), "variables": variables}
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "dot":
        trees = {x: v.to_tree(signature) for x, v in solution.items()}
        return emit_solution(trees, "dot")
    raise ValueError(f"unknown format {fmt!r}")


def parse_solution_json(text: str):
    """Rebuild a solution from its JSON emission."""
    doc = json.loads(text)
    signature = Signature(tuple((n, a) for n, a in doc["signature"]))
    out: dict = {}
    for entry in doc["variables"]:
        kind = entry["kind"]
        if kind == "tree":
            steps = []
            for state in entry["states"]:
                if "param" in state:
                    name = state["param"]
                    steps.append(LeafStep(BOTTOM if name == BOTTOM_ALIAS else name))
                else:
                    steps.append(OpStep(state["op"], tuple(state["children"])))
            out[entry["name"]] = RationalTree(signature, tuple(steps), entry["root"])
        elif kind == "finite":
            out[entry["name"]] = FinitePart(tuple(entry["word"]), entry["leaf"])
        elif kind == "stream":
            out[entry["name"]] = InfinitePart(
                Lasso(tuple(entry["prefix"]), tuple(entry["period"]))
            )
        else:
            raise ParseError(f"unknown solution kind {kind!r}")
    return out


def emit_check(verdict: CheckVerdict, fmt: str) -> str:
    if fmt == "json":
        doc = {
            "kind": "check",
            "holds": verdict.holds,
            "max_vars": verdict.max_vars,
        }
        if not verdict.holds:
            doc["solution_count"] = verdict.solution_count
            doc["witness"] = format_ceq(verdict.witness)
            doc["valuation"] = {k: str(v) for k, v in (verdict.witness_valuation or {}).items()}
        return json.dumps(doc, indent=2) + "\n"
    if verdict.holds:
        return f"holds (all systems up to {verdict.max_vars} variables)\n"
    lines = [
        f"fails: witness system has {verdict.solution_count} solutions",
        format_ceq(verdict.witness).rstrip(),
    ]
    if verdict.witness_valuation:
        lines.append(
            "valuation: "
            + " ".join(f"{k}={v}" for k, v in sorted(verdict.witness_valuation.items()))
        )
    return "\n".join(lines) + "\n"


def emit_verdict3(verdict: Verdict3, fmt: str) -> str:
    if fmt == "json":
        doc = {"kind": "verdict", "status": verdict.status}
        if verdict.depth is not None:
            doc["depth"] = verdict.depth
        if verdict.witness is not None:
            doc["witness"] = repr(verdict.witness)
        if verdict.budget_used is not None:
            doc["budget_used"] = verdict.budget_used
        return json.dumps(doc, indent=2) + "\n"
    scope = "" if verdict.depth is None else f" up to depth {verdict.depth}"
    if verdict.is_equal:
        return f"equal{scope}\n"
    if verdict.is_distinct:
        return f"distinct: {verdict.witness!r}\n"
    return f"unknown{scope} (budget used: {verdict.budget_used})\n"


def emit_witness(witness: SpineWitness, fmt: str) -> str:
    if fmt == "json":
        doc = {
            "kind": "witness",
            "ok": witness.ok,
            "leaf_count": "infinite" if witness.leaf_count == float("inf") else witness.leaf_count,
            "levels_checked": witness.levels_checked,
            "leaf_at_every_level": witness.leaf_at_every_level,
            "system": format_ceq(witness.system),
            "tree": _tree_json(witness.tree),
        }
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "dot":
        return emit_solution({"witness": witness.tree}, "dot")
    lines = [
        f"witness tree: {render_mu(witness.tree)}",
        f"parameter leaves: {'infinite' if witness.leaf_count == float('inf') else witness.leaf_count}",
        f"leaf at every level 1..{witness.levels_checked}: {'yes' if witness.leaf_at_every_level else 'no'}",
    ]
    return "\n".join(lines) + "\n"


def emit_classification(classification: Classification, fmt: str) -> str:
    if fmt == "json":
        doc = {
            "kind": "classification",
            "layers": [sorted(layer) for layer in classification.layers],
            "infinite": sorted(classification.infinite_part),
        }
        return json.dumps(doc, indent=2) + "\n"
    lines = []
    for i, layer in enumerate(classification.layers, start=1):
        lines.append(f"layer {i}: {' '.join(sorted(layer))}")
    lines.append(
        "infinite: " + (" ".join(sorted(classification.infinite_part)) or "(none)")
    )
    return "\n".join(lines) + "\n"


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corec",
        description="Solve, decompose, and check guarded recursive equation systems.",
    )
    parser.add_argument("-k", "--depth", type=int, default=16, help="cut depth (default 16)")
    parser.add_argument("--budget", type=int, default=None, help="enumeration budget")
    parser.add_argument(
        "--format", choices=("text", "dot", "json"), default="text", dest="fmt"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve_p = sub.add_parser("solve", help="solve an equation system")
    solve_p.add_argument("file")

    classify_p = sub.add_parser("classify", help="layer the variables of a system")
    classify_p.add_argument("file")

    decompose_p = sub.add_parser("decompose", help="finite-word or stream per variable")
    decompose_p.add_argument("file")

    check_p = sub.add_parser("check", help="brute-force uniqueness sweep on an algebra")
    group = check_p.add_mutually_exclusive_group(required=True)
    group.add_argument("--corecursive", action="store_true")
    group.add_argument("--cia", action="store_true")
    check_p.add_argument("algebra")
    check_p.add_argument("max_vars", type=int)

    reduce_p = sub.add_parser("reduce", help="reduce a presentation")
    reduce_p.add_argument("presentation")

    witness_p = sub.add_parser("witness", help="spine witness for a wide symbol")
    witness_p.add_argument("symbols", nargs="+", help="signature as name:arity tokens")

    equal_p = sub.add_parser("equal", help="compare the solutions of two systems")
    equal_p.add_argument("left")
    equal_p.add_argument("right")
    equal_p.add_argument("--pres", default=None, help="compare modulo this presentation")

    quotient_p = sub.add_parser("quotient", help="kernel classes of flat terms")
    quotient_p.add_argument("presentation")
    quotient_p.add_argument("--atoms", type=int, required=True)

    return parser


_PARSER = _build_parser()


def _root_tree(path: str):
    system, root = parse_ceq_with_root(_read(path))
    if root is None:
        if not system.variables:
            raise ParseError(f"{path} declares no equations")
        root = system.variables[0]
    return solve_at(system, root)


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        budget = args.budget
        if budget is None:
            budget = int(os.environ.get("COREC_BUDGET", DEFAULT_BUDGET))
        if args.depth < 1:
            raise ValueError("depth must be at least 1")
        if budget < 1:
            raise ValueError("budget must be at least 1")
        for name in ("max_vars", "atoms"):
            if getattr(args, name, 0) < 0:
                raise ValueError(f"{name} must be at least 0")
        return _dispatch(args, budget)
    except SizeLimitExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (CorecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args, budget: int) -> int:
    fmt = args.fmt
    if args.command == "solve":
        system = parse_ceq(_read(args.file))
        sys.stdout.write(emit_solution(solve(system), fmt))
        return 0
    if args.command == "classify":
        system = parse_ceq(_read(args.file))
        folded, _ = fold_constants(system)
        sys.stdout.write(emit_classification(classify(folded), fmt))
        return 0
    if args.command == "decompose":
        system = parse_ceq(_read(args.file))
        folded, relabel = fold_constants(system)
        solution = solve_decomposed(folded)
        sys.stdout.write(emit_decomposed(solution, fmt, folded.signature))
        if relabel and fmt == "text":
            notes = " ".join(f"{k}={v}()" for k, v in sorted(relabel.items()))
            sys.stdout.write(f"# folded constants: {notes}\n")
        return 0
    if args.command == "check":
        algebra = parse_falg(_read(args.algebra))
        run = is_corecursive if args.corecursive else is_cia
        verdict = run(algebra, args.max_vars, budget)
        sys.stdout.write(emit_check(verdict, fmt))
        return 0 if verdict.holds else 1
    if args.command == "reduce":
        presentation = parse_pres(_read(args.presentation))
        reduced, translation = reduce_presentation(presentation, budget)
        sys.stdout.write(format_pres(reduced))
        for original in sorted(translation):
            target, embedding = translation[original]
            coords = " ".join(str(i) for i in embedding)
            sys.stdout.write(f"# {original} -> {target} [{coords}]\n")
        return 0
    if args.command == "witness":
        signature = Signature(tuple(_parse_signature_tokens(args.symbols, 1)))
        witness = witness_non_cia(signature, args.depth)
        sys.stdout.write(emit_witness(witness, fmt))
        return 0 if witness.ok else 1
    if args.command == "equal":
        left = _root_tree(args.left)
        right = _root_tree(args.right)
        if args.pres is not None:
            presentation = parse_pres(_read(args.pres))
            verdict = rtree_equiv_upto(
                presentation, left, right, args.depth, budget
            )
            sys.stdout.write(emit_verdict3(verdict, fmt))
            return {"equal": 0, "distinct": 1}.get(verdict.status, 4)
        same = bisim_equal(left, right)
        sys.stdout.write(("equal" if same else "distinct") + "\n")
        return 0 if same else 1
    if args.command == "quotient":
        presentation = parse_pres(_read(args.presentation))
        atoms = [f"x{i + 1}" for i in range(args.atoms)]
        classes = quotient_classes(presentation, atoms, budget)
        if fmt == "json":
            doc = {
                "kind": "quotient",
                "count": len(classes),
                "classes": [[str(t) for t in cls] for cls in classes],
            }
            sys.stdout.write(json.dumps(doc, indent=2) + "\n")
        else:
            for cls in classes:
                sys.stdout.write("{" + ", ".join(str(t) for t in cls) + "}\n")
            sys.stdout.write(f"count: {len(classes)}\n")
        return 0
    raise ValueError(f"unknown command {args.command!r}")


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
