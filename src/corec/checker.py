"""Brute-force verification on finite algebras.

Everything here is exhaustive search at desk scale: solution counting over
all assignments, corecursiveness and complete iterativity over all flat
systems up to a variable bound, the anchor/solution correspondence, and the
spine witness showing why a symbol of arity two or more breaks complete
iterativity of the finite-leaf fragment.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import (
    DEFAULT_BUDGET,
    EquationSystem,
    FlatTerm,
    Param,
    Signature,
    Var,
)
from .errors import (
    IncompleteTable,
    NoLargeAritySymbol,
    ParameterMismatch,
    SignatureMismatch,
    SizeLimitExceeded,
    UndeclaredName,
)
from .presentation import Presentation, Verdict3, _axiom_variables, rtree_equiv_upto
from .rtree import INFINITE, LeafStep, RationalTree, _levels, count_param_leaves
from .solver import anchors, classify, solve, solve_anchored, solve_at


@dataclass(frozen=True)
class FiniteAlgebra:
    """A finite carrier with one total operation table per symbol."""

    signature: Signature
    carrier: tuple
    tables: Mapping[str, Mapping[tuple, object]]

    def __post_init__(self) -> None:
        carrier = tuple(self.carrier)
        if len(set(carrier)) != len(carrier):
            raise ValueError("carrier elements must be distinct")
        if not carrier:
            raise ValueError("carrier must be nonempty")
        object.__setattr__(self, "carrier", carrier)
        tables = {sym: dict(rows) for sym, rows in self.tables.items()}
        object.__setattr__(self, "tables", tables)
        elements = set(carrier)
        for name, arity in self.signature.symbols:
            rows = tables.get(name)
            if rows is None:
                raise IncompleteTable(f"no table for symbol {name!r}")
            for args in itertools.product(carrier, repeat=arity):
                if args not in rows:
                    raise IncompleteTable(f"table for {name!r} misses row {args}")
            for args, value in rows.items():
                if len(args) != arity:
                    raise ValueError(f"table row for {name!r} has wrong arity: {args}")
                if value not in elements or any(a not in elements for a in args):
                    raise ValueError(f"table row for {name!r} leaves the carrier")
        extra = set(tables) - {n for n, _ in self.signature.symbols}
        if extra:
            raise ValueError(f"table for undeclared symbol {sorted(extra)[0]!r}")

    def apply(self, symbol: str, args: tuple) -> object:
        return self.tables[symbol][tuple(args)]


def unary_algebra(signature: Signature, carrier: Sequence, actions: Mapping[str, Mapping]) -> FiniteAlgebra:
    """Convenience constructor: per-symbol element-to-element maps."""
    tables = {
        sym: {(a,): actions[sym][a] for a in carrier} for sym in actions
    }
    return FiniteAlgebra(signature, tuple(carrier), tables)


def find_presentation_violation(
    algebra: FiniteAlgebra, presentation: Presentation
) -> tuple[tuple[FlatTerm, FlatTerm], dict] | None:
    """An axiom and variable assignment the algebra fails, if any."""
    if algebra.signature != presentation.signature:
        raise SignatureMismatch("algebra and presentation use different signatures")
    for left, right in presentation.axioms:
        names = _axiom_variables(left, right)
        for combo in itertools.product(algebra.carrier, repeat=len(names)):
            env = dict(zip(names, combo))
            lv = algebra.apply(left.head, tuple(env[a] for a in left.args))
            rv = algebra.apply(right.head, tuple(env[a] for a in right.args))
            if lv != rv:
                return (left, right), env
    return None


def satisfies_presentation(algebra: FiniteAlgebra, presentation: Presentation) -> bool:
    """True iff every axiom holds under every assignment into the carrier."""
    return find_presentation_violation(algebra, presentation) is None


def count_solutions(
    algebra: FiniteAlgebra,
    system: EquationSystem,
    valuation: Mapping[str, object] | None = None,
    budget: int | None = DEFAULT_BUDGET,
) -> tuple[int, list[dict[str, object]]]:
    """Count the maps from variables to the carrier satisfying every equation."""
    valuation = dict(valuation or {})
    for y in system.parameters:
        if y not in valuation:
            raise UndeclaredName(f"no interpretation for parameter {y!r}")
        if valuation[y] not in algebra.carrier:
            raise ValueError(f"value for parameter {y!r} is not in the carrier")
    variables = system.variables
    total = len(algebra.carrier) ** len(variables)
    if budget is not None and total > budget:
        raise SizeLimitExceeded(f"{total} assignments exceed budget {budget}")
    solutions = []
    for combo in itertools.product(algebra.carrier, repeat=len(variables)):
        env = dict(zip(variables, combo))
        good = True
        for x in variables:
            r = system.rhs_of(x)
            if isinstance(r, Param):
                expected = valuation[r.name]
            else:
                args = tuple(
                    env[a.name] if isinstance(a, Var) else valuation[a.name]
                    for a in r.args
                )
                expected = algebra.apply(r.head, args)
            if env[x] != expected:
                good = False
                break
        if good:
            solutions.append(env)
    return len(solutions), solutions


@dataclass(frozen=True)
class CheckVerdict:
    """Outcome of an exhaustive uniqueness sweep, with a replayable witness."""

    holds: bool
    witness: EquationSystem | None
    witness_valuation: dict | None
    solution_count: int | None
    max_vars: int


def _options(algebra: FiniteAlgebra, var_count: int, with_params: bool) -> list:
    """Every flat right-hand side over x1..x{var_count}: (symbol, table, argument variables).

    Tables map carrier-index tuples to a carrier index.  A parameter naming
    element t is (None, {(): t}, ()); the parameters come after the symbols.
    """
    n = len(algebra.carrier)
    to_index = {c: i for i, c in enumerate(algebra.carrier)}
    options = []
    for name, arity in algebra.signature.symbols:
        table = {
            idx: to_index[algebra.apply(name, tuple(algebra.carrier[i] for i in idx))]
            for idx in itertools.product(range(n), repeat=arity)
        }
        for args in itertools.product(range(var_count), repeat=arity):
            options.append((name, table, args))
    if with_params:
        options.extend((None, {(): t}, ()) for t in range(n))
    return options


def _witness_system(algebra: FiniteAlgebra, options, combo) -> tuple[EquationSystem, dict]:
    names = [f"x{i + 1}" for i in range(len(combo))]
    param_names = {}
    rhs: dict = {}
    for i, choice in enumerate(combo):
        sym, table, args = options[choice]
        if sym is None:
            rhs[names[i]] = Param(param_names.setdefault(table[()], f"p{table[()]}"))
        else:
            rhs[names[i]] = FlatTerm(sym, tuple(Var(names[j]) for j in args))
    params = tuple(param_names[t] for t in sorted(param_names))
    valuation = {param_names[t]: algebra.carrier[t] for t in param_names}
    system = EquationSystem(algebra.signature, tuple(names), params, rhs)
    return system, valuation


def _uniqueness_sweep(
    algebra: FiniteAlgebra,
    max_vars: int,
    with_params: bool,
    budget: int | None,
) -> CheckVerdict:
    n = len(algebra.carrier)
    work = 0
    for m in range(1, max_vars + 1):
        options = _options(algebra, m, with_params)
        work += len(options) ** m * n**m
        if budget is not None and work > budget:
            raise SizeLimitExceeded(f"sweep needs {work} steps, budget is {budget}")
        # Bit k of masks[i][c]: assignment k (in product order) gives variable
        # i the value of option c.  A system's solutions are one AND per variable.
        masks = [[0] * len(options) for _ in range(m)]
        for k, assign in enumerate(itertools.product(range(n), repeat=m)):
            for c, (_, table, args) in enumerate(options):
                value = table[tuple(assign[j] for j in args)]
                for i in range(m):
                    if assign[i] == value:
                        masks[i][c] |= 1 << k
        for combo in itertools.product(range(len(options)), repeat=m):
            solutions = -1  # every assignment
            for row, c in zip(masks, combo):
                solutions &= row[c]
            count = solutions.bit_count()
            if count != 1:
                system, valuation = _witness_system(algebra, options, combo)
                return CheckVerdict(False, system, valuation, count, max_vars)
    return CheckVerdict(True, None, None, None, max_vars)


def is_corecursive(
    algebra: FiniteAlgebra, max_vars: int, budget: int | None = DEFAULT_BUDGET
) -> CheckVerdict:
    """Does every parameter-free flat system up to the bound have exactly one solution?"""
    return _uniqueness_sweep(algebra, max_vars, with_params=False, budget=budget)


def is_cia(
    algebra: FiniteAlgebra, max_vars: int, budget: int | None = DEFAULT_BUDGET
) -> CheckVerdict:
    """Like is_corecursive, but right-hand sides may also name carrier elements."""
    return _uniqueness_sweep(algebra, max_vars, with_params=True, budget=budget)


@dataclass(frozen=True)
class AnchorReport:
    """Anchor/solution comparison for one system over one algebra."""

    anchor_count: int
    solution_count: int
    bijective: bool
    anchors: tuple
    solutions: tuple


def anchor_correspondence(
    algebra: FiniteAlgebra,
    system: EquationSystem,
    valuation: Mapping[str, object] | None = None,
    budget: int | None = DEFAULT_BUDGET,
) -> AnchorReport:
    """Check that anchors parameterize the solutions exactly.

    Every anchor must extend to a genuine solution, distinct anchors to
    distinct solutions, and every brute-force solution must restrict to an
    anchor on the infinite part.
    """
    valuation = dict(valuation or {})
    found_anchors = anchors(system, algebra, budget)
    extended = [
        solve_anchored(system, algebra, anchor, valuation) for anchor in found_anchors
    ]
    total, enumerated = count_solutions(algebra, system, valuation, budget)
    infinite_part = classify(system).infinite_part
    as_sets = [tuple(sorted(sol.items())) for sol in enumerated]
    ok = True
    for sol in extended:
        if tuple(sorted(sol.items())) not in as_sets:
            ok = False
    if len({tuple(sorted(s.items())) for s in extended}) != len(extended):
        ok = False
    anchor_keys = {tuple(sorted(a.items())) for a in found_anchors}
    for sol in enumerated:
        restriction = tuple(sorted((x, sol[x]) for x in infinite_part))
        if restriction not in anchor_keys:
            ok = False
    if len(found_anchors) != total:
        ok = False
    return AnchorReport(
        len(found_anchors), total, ok, tuple(found_anchors), tuple(enumerated)
    )


@dataclass(frozen=True)
class SpineWitness:
    """The solved spine system showing the finite-leaf fragment is too small."""

    system: EquationSystem
    tree: RationalTree
    leaf_count: object
    levels_checked: int
    leaf_at_every_level: bool

    @property
    def ok(self) -> bool:
        return self.leaf_count == INFINITE and self.leaf_at_every_level


def witness_non_cia(signature: Signature, depth: int) -> SpineWitness:
    """Build and verify the self-nesting spine system for a wide symbol.

    Uses the first symbol of arity at least two: the first variable feeds
    the symbol with itself plus one parameter per remaining slot, so its
    solution repeats a parameter leaf at every positive level while having
    infinitely many parameter leaves in total.
    """
    wide = next(
        ((n, a) for n, a in signature.symbols if a >= 2),
        None,
    )
    if wide is None:
        raise NoLargeAritySymbol("no symbol of arity at least 2 in the signature")
    name, arity = wide
    variables = tuple(f"x{i}" for i in range(1, arity + 1))
    parameters = tuple(f"y{i}" for i in range(2, arity + 1))
    rhs: dict = {
        variables[0]: FlatTerm(
            name, (Var(variables[0]),) + tuple(Param(p) for p in parameters)
        )
    }
    for i in range(1, arity):
        rhs[variables[i]] = Param(parameters[i - 1])
    system = EquationSystem(signature, variables, parameters, rhs)
    tree = solve_at(system, variables[0])

    target = LeafStep(parameters[0])
    all_levels = all(
        any(tree.steps[s] == target for s in level)
        for level in _levels(tree, depth)[1:]
    )
    return SpineWitness(
        system, tree, count_param_leaves(tree), depth, all_levels
    )


def _rewrite_once(presentation: Presentation, term: FlatTerm) -> FlatTerm | None:
    """One root-level axiom application to a flat right-hand side, if any fits.

    Only axioms whose other side reuses the matched side's variables apply;
    nonlinear variables must be matched by syntactically equal atoms.
    """
    for left, right in presentation.axioms:
        for src, dst in ((left, right), (right, left)):
            if src.head != term.head:
                continue
            if not set(dst.args) <= set(src.args):
                continue
            env: dict = {}
            ok = True
            for var, atom in zip(src.args, term.args):
                if var in env and env[var] != atom:
                    ok = False
                    break
                env[var] = atom
            if not ok:
                continue
            rewritten = FlatTerm(dst.head, tuple(env[v] for v in dst.args))
            if rewritten != term:
                return rewritten
    return None


def rewrite_system(presentation: Presentation, system: EquationSystem) -> EquationSystem:
    """Apply at most one axiom rewrite to each flat right-hand side."""
    rhs: dict = {}
    for x in system.variables:
        r = system.rhs_of(x)
        if isinstance(r, FlatTerm):
            replacement = _rewrite_once(presentation, r)
            rhs[x] = replacement if replacement is not None else r
        else:
            rhs[x] = r
    return EquationSystem(system.signature, system.variables, system.parameters, rhs)


def check_rewrite_invariance(
    presentation: Presentation,
    system: EquationSystem,
    depth: int,
    budget: int | None = DEFAULT_BUDGET,
    models: Sequence = (),
    rewritten: EquationSystem | None = None,
) -> Verdict3:
    """Solve the system and an axiom-rewritten variant; compare levelwise.

    Rewriting right-hand sides by presentation axioms must not change any
    solution up to the congruence, observed through truncations at every
    level up to the requested depth.  Passing an explicit second system
    replaces the automatic rewrite (useful as a soundness control).
    """
    if rewritten is None:
        rewritten = rewrite_system(presentation, system)
    else:
        if set(rewritten.variables) != set(system.variables):
            raise ParameterMismatch("rewritten system must keep the same variables")
    base = solve(system)
    other = solve(rewritten)
    unknown: Verdict3 | None = None
    for x in system.variables:
        verdict = rtree_equiv_upto(
            presentation, base[x], other[x], depth, budget, models
        )
        if verdict.is_distinct:
            return Verdict3.distinct({"variable": x, "witness": verdict.witness})
        if verdict.is_unknown:
            unknown = verdict
    return unknown if unknown is not None else Verdict3.equal(depth)
