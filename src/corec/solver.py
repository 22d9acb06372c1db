"""Unique solutions of flat equation systems.

The generic solver reads a rational tree straight off the system: variables
become states, parameter references become leaves.  For all-unary
signatures the solution decomposes further: a variable either reaches a
parameter through a finite word of symbols or falls into a cycle, and the
two cases are returned as explicit finite-word and stream values.  Finite
algebras get anchored solutions: a choice of value for each cycle variable
extends uniquely to a solution of the whole system.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Union

from .core import DEFAULT_BUDGET, EquationSystem, FlatTerm, Param, Signature, Var
from .errors import (
    InvalidAnchor,
    NonUnarySignature,
    ParameterMismatch,
    SignatureMismatch,
    SizeLimitExceeded,
    UndeclaredName,
    UnsupportedSystem,
)
from .rtree import (
    Lasso,
    LeafStep,
    OpStep,
    RationalTree,
    Step,
    from_lasso,
    minimize,
    _quotient,
    _refine,
    _shifted,
    _walk_lasso,
)


def _rhs_steps(system: EquationSystem, var_state: Mapping[str, int], base: int) -> list[Step]:
    """The right-hand sides as steps for a joint system, placed from index ``base``.

    Variable i's right-hand side is state ``base + i`` and a variable atom
    points at ``var_state``; after the right-hand sides comes one shared
    leaf per parameter used as an atom inside a flat term.
    """
    n = len(system.variables)
    leaf_state: dict[str, int] = {}
    steps: list[Step] = []
    for x in system.variables:
        r = system.rhs_of(x)
        if isinstance(r, Param):
            steps.append(LeafStep(r.name))
        else:
            children = (
                var_state[a.name] if isinstance(a, Var)
                else leaf_state.setdefault(a.name, base + n + len(leaf_state))
                for a in r.args
            )
            steps.append(OpStep(r.head, tuple(children)))
    return steps + [LeafStep(p) for p in leaf_state]


def solve(system: EquationSystem) -> dict[str, RationalTree]:
    """The unique solution of the system, one rational tree per variable.

    States are the variables plus one leaf per parameter mentioned inside a
    flat term, each variable's step read directly off its right-hand side.
    One refinement of that system gives its bisimulation quotient, and each
    variable's tree is its block in the quotient, so every tree is minimal.
    """
    var_state = {x: i for i, x in enumerate(system.variables)}
    steps = _rhs_steps(system, var_state, 0)
    block = _refine(steps)
    quotient = _quotient(steps, block)
    return {x: RationalTree(system.signature, quotient, block[i]) for x, i in var_state.items()}


def solve_at(system: EquationSystem, variable: str) -> RationalTree:
    """The solution at one variable; only the states it reaches are refined.

    The same tree as ``solve(system)[variable]``: bisimilarity on the states
    the variable reaches is the whole system's restricted to them, and
    ``RationalTree`` numbers the states of either in breadth-first order.
    """
    var_state = {x: i for i, x in enumerate(system.variables)}
    if variable not in var_state:
        raise UndeclaredName(f"no equation for variable {variable!r}")
    steps = tuple(_rhs_steps(system, var_state, 0))
    return minimize(RationalTree(system.signature, steps, var_state[variable]))


def is_tree_solution(
    system: EquationSystem, assignment: Mapping[str, RationalTree]
) -> bool:
    """Check the defining fixed-point property of a candidate solution.

    For every variable the assigned tree must unfold, at the root, exactly
    as the right-hand side does with atoms resolved through the assignment.
    The assigned trees and one state per right-hand side form one joint
    system, refined once; each variable's tree must share its right-hand
    side's block.
    """
    if any(x not in assignment for x in system.variables):
        return False
    steps: list[Step] = []
    root: dict[str, int] = {}
    for x in system.variables:
        tree = assignment[x]
        if tree.signature != system.signature:
            raise SignatureMismatch(f"tree for {x!r} is over a different signature")
        root[x] = len(steps) + tree.root
        steps += _shifted(tree.steps, len(steps))
    base = len(steps)
    steps += _rhs_steps(system, root, base)
    block = _refine(steps)
    return all(block[root[x]] == block[base + i] for i, x in enumerate(system.variables))


@dataclass(frozen=True)
class Classification:
    """Partition of the variables by how they reach a parameter.

    layers[0] holds the variables whose right-hand side is a parameter;
    layers[n] the variables one symbol step away from layers[n-1]; the
    infinite part holds the variables whose successor chain never exits.
    """

    layers: tuple[frozenset[str], ...]
    infinite_part: frozenset[str]


def _unary_view(system: EquationSystem) -> dict[str, tuple[str, str] | str]:
    """Per variable: (symbol, successor) for flat steps, parameter name otherwise."""
    if not system.signature.all_unary:
        raise NonUnarySignature(
            "layered solving needs an all-unary signature; fold constants first"
        )
    view: dict[str, tuple[str, str] | str] = {}
    for x in system.variables:
        r = system.rhs_of(x)
        if isinstance(r, Param):
            view[x] = r.name
        else:
            atom = r.args[0]
            if not isinstance(atom, Var):
                raise UnsupportedSystem(
                    f"rhs of {x!r} applies a symbol to a parameter; "
                    "only variable atoms are supported here"
                )
            view[x] = (r.head, atom.name)
    return view


def classify(system: EquationSystem) -> Classification:
    """Layer the variables by distance to a parameter; the rest is the infinite part.

    One pass records each variable's callers; layer n + 1 is then the
    callers of layer n, so every variable is visited once.
    """
    view = _unary_view(system)
    callers: dict[str, list[str]] = {x: [] for x in system.variables}
    for x, v in view.items():
        if not isinstance(v, str):
            callers[v[1]].append(x)
    layers: list[frozenset[str]] = []
    current = [x for x in system.variables if isinstance(view[x], str)]
    while current:
        layers.append(frozenset(current))
        current = [x for y in current for x in callers[y]]
    layered = set().union(*layers)
    return Classification(
        tuple(layers), frozenset(x for x in system.variables if x not in layered)
    )


@dataclass(frozen=True)
class FinitePart:
    """Solution value that reaches a parameter: a word of symbols, then the leaf."""

    word: tuple[str, ...]
    leaf: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "word", tuple(self.word))

    def to_tree(self, signature: Signature) -> RationalTree:
        steps: list = [
            OpStep(w, (i + 1,)) for i, w in enumerate(self.word)
        ]
        steps.append(LeafStep(self.leaf))
        return RationalTree(signature, tuple(steps), 0)  # distinct depths: already minimal


@dataclass(frozen=True)
class InfinitePart:
    """Solution value that never reaches a parameter: an eventually periodic stream."""

    lasso: Lasso

    def to_tree(self, signature: Signature) -> RationalTree:
        return from_lasso(self.lasso, signature)


DecomposedSolution = dict[str, Union[FinitePart, InfinitePart]]


def solve_decomposed(system: EquationSystem) -> DecomposedSolution:
    """Solve an all-unary system into explicit finite-word and stream values."""
    view = _unary_view(system)
    classification = classify(system)
    out: DecomposedSolution = {}
    for x in system.variables:
        if x in classification.infinite_part:
            out[x] = InfinitePart(_walk_lasso(x, view.__getitem__))
        else:
            word: list[str] = []
            cur = x
            while not isinstance(view[cur], str):
                symbol, cur = view[cur]  # type: ignore[misc]
                word.append(symbol)
            out[x] = FinitePart(tuple(word), view[cur])  # type: ignore[arg-type]
    return out


def fold_constants(system: EquationSystem) -> tuple[EquationSystem, dict[str, str]]:
    """Rewrite constant right-hand sides as fresh parameters.

    Returns the rewritten system over the constant-free signature together
    with the map from fresh parameter names back to constant symbols.  Only
    signatures with unary and constant symbols are supported; the result is
    all-unary.
    """
    sig = system.signature
    kept = tuple((n, a) for n, a in sig.symbols if a > 0)
    if any(a > 1 for _, a in kept):
        raise NonUnarySignature("cannot fold constants of a signature with higher arities")
    if not kept:
        raise NonUnarySignature("signature has no unary symbols to keep")
    constants = sig.constant_symbols()
    if not constants:
        return system, {}
    taken = set(system.variables) | set(system.parameters)
    relabel: dict[str, str] = {}
    fresh_of: dict[str, str] = {}
    for c in constants:
        name = f"~{c}"
        while name in taken:
            name += "~"
        taken.add(name)
        relabel[name] = c
        fresh_of[c] = name
    new_sig = Signature(kept)
    new_rhs: dict[str, FlatTerm | Param] = {}
    for x in system.variables:
        r = system.rhs_of(x)
        if isinstance(r, FlatTerm) and not r.args:
            new_rhs[x] = Param(fresh_of[r.head])
        else:
            new_rhs[x] = r
    return (
        EquationSystem(
            new_sig,
            system.variables,
            system.parameters + tuple(fresh_of[c] for c in constants),
            new_rhs,
        ),
        relabel,
    )


def compose_systems(outer: EquationSystem, inner: EquationSystem) -> EquationSystem:
    """Chain two systems: the outer one's parameters are the inner one's variables.

    Variables of the outer system keep their flat terms with parameter atoms
    re-tagged as variables; outer variables defined directly by a parameter
    take over that parameter's right-hand side from the inner system.
    """
    if outer.signature != inner.signature:
        raise SignatureMismatch("composed systems must share a signature")
    if set(outer.parameters) != set(inner.variables):
        raise ParameterMismatch(
            "outer parameters and inner variables must be the same set"
        )
    overlap = (set(outer.variables) | set(inner.variables)) & set(inner.parameters)
    if overlap:
        raise ParameterMismatch(
            f"name {sorted(overlap)[0]!r} would be both variable and parameter"
        )
    if set(outer.variables) & set(inner.variables):
        clash = sorted(set(outer.variables) & set(inner.variables))[0]
        raise ParameterMismatch(f"variable {clash!r} declared in both systems")
    rhs: dict[str, FlatTerm | Param] = {}
    for x in outer.variables:
        r = outer.rhs_of(x)
        if isinstance(r, Param):
            rhs[x] = inner.rhs_of(r.name)
        else:
            rhs[x] = FlatTerm(
                r.head,
                tuple(Var(a.name) for a in r.args),
            )
    for y in inner.variables:
        rhs[y] = inner.rhs_of(y)
    return EquationSystem(
        outer.signature,
        outer.variables + inner.variables,
        inner.parameters,
        rhs,
    )


def anchors(
    system: EquationSystem, algebra, budget: int | None = DEFAULT_BUDGET
) -> list[dict[str, object]]:
    """All self-consistent valuations of the infinite-part variables.

    A map s over the infinite part is an anchor when s(x) equals the
    algebra's operation for the step symbol applied to s of the successor,
    for every infinite-part variable x.  Enumerated exhaustively over the
    carrier, in carrier order.
    """
    classification = classify(system)
    view = _unary_view(system)
    inf_vars = [x for x in system.variables if x in classification.infinite_part]
    carrier = list(algebra.carrier)
    total = len(carrier) ** len(inf_vars)
    if budget is not None and total > budget:
        raise SizeLimitExceeded(f"{total} anchor candidates exceed budget {budget}")
    found: list[dict[str, object]] = []
    for values in itertools.product(carrier, repeat=len(inf_vars)):
        cand = dict(zip(inf_vars, values))
        if all(
            cand[x] == algebra.apply(view[x][0], (cand[view[x][1]],))
            for x in inf_vars
        ):
            found.append(cand)
    return found


def solve_anchored(
    system: EquationSystem,
    algebra,
    anchor: Mapping[str, object],
    valuation: Mapping[str, object],
) -> dict[str, object]:
    """Extend an anchor to the unique solution it determines.

    Layered variables fold the algebra's operation tables along their chain
    down to the interpreted parameter; infinite-part variables take the
    anchor's value.
    """
    classification = classify(system)
    view = _unary_view(system)
    inf_vars = set(classification.infinite_part)
    if set(anchor) != inf_vars:
        raise InvalidAnchor("anchor domain must be exactly the infinite part")
    for x in inf_vars:
        symbol, nxt = view[x]
        if anchor[x] not in algebra.carrier:
            raise InvalidAnchor(f"anchor value for {x!r} is not in the carrier")
        if anchor[x] != algebra.apply(symbol, (anchor[nxt],)):
            raise InvalidAnchor(f"anchor is not consistent at {x!r}")
    for y in system.parameters:
        if y not in valuation:
            raise UndeclaredName(f"no interpretation for parameter {y!r}")

    values = dict(anchor)
    for layer in classification.layers:  # each layer only reads the one below
        for x in layer:
            step = view[x]
            if isinstance(step, str):
                values[x] = valuation[step]
            else:
                values[x] = algebra.apply(step[0], (values[step[1]],))
    return {x: values[x] for x in system.variables}


def tree_to_system(tree: RationalTree) -> tuple[EquationSystem, str]:
    """Present a rational tree as the equation system it solves.

    Returns the system plus the variable corresponding to the root state;
    solving the system at that variable recovers the tree up to bisimilarity.
    """
    labels = set(tree.params())
    prefix = "s"
    while any(
        p.startswith(prefix) and p[len(prefix):].isdigit() for p in labels
    ):
        prefix += "_"
    names = [f"{prefix}{i}" for i in range(len(tree.steps))]
    rhs: dict[str, FlatTerm | Param] = {}
    for i, st in enumerate(tree.steps):
        if isinstance(st, LeafStep):
            rhs[names[i]] = Param(st.param)
        else:
            rhs[names[i]] = FlatTerm(st.symbol, tuple(Var(names[c]) for c in st.children))
    system = EquationSystem(tree.signature, tuple(names), tree.params(), rhs)
    return system, names[tree.root]
