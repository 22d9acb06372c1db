"""Rational trees: finitely represented, possibly infinite trees over a signature.

A rational tree is stored as a finite pointed transition system: every state
either applies an operation symbol to successor states or is a leaf labeled
by a parameter.  Two systems represent the same infinite tree exactly when
their roots are bisimilar, which partition refinement decides.  Trees with
no parameter leaves represent closed infinite trees; for all-unary
signatures those are eventually periodic streams and round-trip through the
Lasso encoding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .core import BOTTOM, FiniteTree, Op, ParamLeaf, Signature
from .errors import (
    ArityMismatch,
    HasParameters,
    MissingAssignment,
    NonUnarySignature,
    ReservedParameter,
    SignatureMismatch,
    UndeclaredName,
)

#: Saturation cap for leaf counting; counts at or above it are reported as-is
#: with the exact value clamped, never silently wrapped.
LEAF_COUNT_CAP = 2**63 - 1
#: Sentinel returned when the number of parameter leaves is infinite.
INFINITE = float("inf")


@dataclass(frozen=True)
class OpStep:
    """State behavior: apply a symbol to successor states."""

    symbol: str
    children: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True)
class LeafStep:
    """State behavior: stop at a parameter-labeled leaf."""

    param: str


Step = Union[OpStep, LeafStep]


@dataclass(frozen=True)
class RationalTree:
    """A finite pointed system denoting a possibly infinite tree.

    Construction prunes states unreachable from the root and renumbers the
    rest in breadth-first order, so structurally equal values denote the
    same system literally.  Structural equality is *not* bisimilarity; use
    bisim_equal for tree equality.
    """

    signature: Signature
    steps: tuple[Step, ...]
    root: int = 0

    def __post_init__(self) -> None:
        steps = tuple(self.steps)
        if not steps:
            raise ValueError("a rational tree needs at least one state")
        if not 0 <= self.root < len(steps):
            raise ValueError(f"root {self.root} out of range")
        for i, st in enumerate(steps):
            if isinstance(st, OpStep):
                arity = self.signature.arity(st.symbol)
                if len(st.children) != arity:
                    raise ArityMismatch(
                        f"state {i}: {st.symbol!r} has arity {arity}, got {len(st.children)} children"
                    )
                for c in st.children:
                    if not 0 <= c < len(steps):
                        raise ValueError(f"state {i} points at missing state {c}")
            elif not isinstance(st, LeafStep):
                raise ValueError(f"state {i} has an invalid step {st!r}")
        order = _bfs_order(steps, self.root)
        renum = {s: i for i, s in enumerate(order)}
        new_steps = []
        for s in order:
            st = steps[s]
            if isinstance(st, OpStep):
                new_steps.append(OpStep(st.symbol, tuple(renum[c] for c in st.children)))
            else:
                new_steps.append(st)
        object.__setattr__(self, "steps", tuple(new_steps))
        object.__setattr__(self, "root", 0)

    def __len__(self) -> int:
        return len(self.steps)

    def params(self) -> tuple[str, ...]:
        """Parameter labels occurring in the system, by first occurrence."""
        seen: dict[str, None] = {}
        for st in self.steps:
            if isinstance(st, LeafStep):
                seen.setdefault(st.param, None)
        return tuple(seen)


def _bfs_order(steps: Sequence[Step], root: int) -> list[int]:
    order = [root]
    seen = {root}
    i = 0
    while i < len(order):
        st = steps[order[i]]
        i += 1
        if isinstance(st, OpStep):
            for c in st.children:
                if c not in seen:
                    seen.add(c)
                    order.append(c)
    return order


def leaf(signature: Signature, name: str) -> RationalTree:
    """The single-leaf tree for a parameter."""
    return RationalTree(signature, (LeafStep(name),), 0)


def _shifted(steps: Sequence[Step], base: int) -> list[Step]:
    """The steps with every child index moved up by base, for a joint system."""
    return [
        OpStep(st.symbol, tuple(base + c for c in st.children)) if isinstance(st, OpStep) else st
        for st in steps
    ]


def op_apply(
    signature: Signature, symbol: str, children: Sequence[RationalTree]
) -> RationalTree:
    """Join child trees under a new root node and minimize the result."""
    arity = signature.arity(symbol)
    if len(children) != arity:
        raise ArityMismatch(f"{symbol!r} has arity {arity}, got {len(children)} children")
    steps: list[Step] = [None]  # type: ignore[list-item]  # root patched below
    roots = []
    for child in children:
        if child.signature != signature:
            raise SignatureMismatch("child tree built over a different signature")
        roots.append(len(steps) + child.root)
        steps += _shifted(child.steps, len(steps))
    steps[0] = OpStep(symbol, tuple(roots))
    return minimize(RationalTree(signature, tuple(steps), 0))


def _refine(steps: Sequence[Step]) -> list[int]:
    """Coarsest bisimulation on the states, as a block id per state.

    Starts from the trivial partition and repeatedly splits by observable
    shape plus the blocks of successor states, until stable.
    """
    n = len(steps)
    block = [0] * n
    while True:
        keys = []
        for st in steps:
            if isinstance(st, LeafStep):
                keys.append(("leaf", st.param))
            else:
                keys.append((st.symbol, tuple(block[c] for c in st.children)))
        remap: dict[object, int] = {}
        new_block = [remap.setdefault(k, len(remap)) for k in keys]
        if new_block == block:
            return block
        block = new_block


def minimize(tree: RationalTree) -> RationalTree:
    """The unique smallest system bisimilar to the input."""
    block = _refine(tree.steps)
    rep_step: dict[int, Step] = {}
    for i, st in enumerate(tree.steps):
        b = block[i]
        if b in rep_step:
            continue
        if isinstance(st, OpStep):
            rep_step[b] = OpStep(st.symbol, tuple(block[c] for c in st.children))
        else:
            rep_step[b] = st
    steps = tuple(rep_step[b] for b in range(len(rep_step)))
    return RationalTree(tree.signature, steps, block[tree.root])


def bisim_equal(left: RationalTree, right: RationalTree) -> bool:
    """True iff the two systems unfold to the same infinite tree."""
    if left.signature != right.signature:
        raise SignatureMismatch("cannot compare trees over different signatures")
    offset = len(left.steps)
    block = _refine(list(left.steps) + _shifted(right.steps, offset))
    return block[left.root] == block[offset + right.root]


def _truncate(tree: RationalTree, depth: int, make):
    """Build the unfolding truncated at the given depth, bottom-up.

    ``make(label, None)`` builds a leaf and ``make(symbol, kids)`` an inner
    node; it is called once per (state, remaining depth) pair reachable
    from the root.  The states needed at each remaining depth are collected
    top-down first, then each level is built from the one below it, so the
    walk needs no recursion at any depth.
    """
    if depth < 0:
        raise ValueError("cut depth must be nonnegative")
    steps = tree.steps
    needed = [{tree.root}]  # needed[i]: states at remaining depth depth - i
    for _ in range(depth):
        below: set[int] = set()
        for s in needed[-1]:
            st = steps[s]
            if isinstance(st, OpStep):
                below.update(st.children)
        needed.append(below)
    built = {s: make(BOTTOM, None) for s in needed.pop()}
    while needed:
        level: dict = {}
        for s in needed.pop():
            st = steps[s]
            if isinstance(st, LeafStep):
                level[s] = make(st.param, None)
            else:
                level[s] = make(st.symbol, tuple(built[c] for c in st.children))
        built = level
    return built[tree.root]


def _finite_node(label: str, kids: tuple | None) -> FiniteTree:
    return ParamLeaf(label) if kids is None else Op(label, kids)


def cut(tree: RationalTree, depth: int) -> FiniteTree:
    """Truncate the unfolding at the given depth.

    Nodes strictly above the cut are copied; every node at the cut depth is
    replaced by the reserved bottom leaf.  Shared (state, depth) pairs reuse
    one result object, so the output is a compact dag.
    """
    for st in tree.steps:
        if isinstance(st, LeafStep) and st.param == BOTTOM:
            raise ReservedParameter("tree already uses the reserved cut label")
    return _truncate(tree, depth, _finite_node)


def cut_equal(left: RationalTree, right: RationalTree, depth: int) -> bool:
    """Whether the depth-bounded truncations of two trees coincide.

    Equivalent to ``cut(left, depth) == cut(right, depth)`` but linear in
    states times depth: both truncations are keyed into one shared
    hash-consing pool, so the comparison never walks the unfolded trees.
    """
    pool: dict[tuple, int] = {}

    def key(label: str, kids: tuple | None) -> int:
        return pool.setdefault((label, kids), len(pool))

    return _truncate(left, depth, key) == _truncate(right, depth, key)


def _leaf_reaching_states(tree: RationalTree) -> set[int]:
    parents: dict[int, list[int]] = {i: [] for i in range(len(tree.steps))}
    seeds = []
    for i, st in enumerate(tree.steps):
        if isinstance(st, OpStep):
            for c in st.children:
                parents[c].append(i)
        else:
            seeds.append(i)
    reach = set(seeds)
    stack = list(seeds)
    while stack:
        for p in parents[stack.pop()]:
            if p not in reach:
                reach.add(p)
                stack.append(p)
    return reach


def _sccs(nodes: set[int], succ: Mapping[int, Sequence[int]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative; components come out children-first."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    out: list[list[int]] = []
    counter = itertools.count()

    for start in nodes:
        if start in index:
            continue
        work: list[tuple[int, int]] = [(start, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = next(counter)
                stack.append(v)
                on_stack.add(v)
            advanced = False
            children = succ[v]
            while pi < len(children):
                w = children[pi]
                pi += 1
                if w not in index:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return out


def count_param_leaves(tree: RationalTree):
    """Number of parameter-leaf occurrences in the unfolded tree.

    Returns INFINITE when a leaf is reachable from a cycle; otherwise the
    exact occurrence count by path counting, saturated at LEAF_COUNT_CAP.
    """
    reach = _leaf_reaching_states(tree)
    if tree.root not in reach:
        return 0
    succ = {}
    for s in reach:
        st = tree.steps[s]
        if isinstance(st, OpStep):
            succ[s] = [c for c in st.children if c in reach]
        else:
            succ[s] = []
    comps = _sccs(reach, succ)
    for comp in comps:
        if len(comp) > 1:
            return INFINITE
        v = comp[0]
        if v in succ[v]:
            return INFINITE
    counts: dict[int, int] = {}
    for comp in comps:  # children-first order doubles as topological order
        v = comp[0]
        st = tree.steps[v]
        if isinstance(st, LeafStep):
            counts[v] = 1
        else:
            total = sum(counts[c] for c in st.children if c in reach)
            counts[v] = min(total, LEAF_COUNT_CAP)
    return counts[tree.root]


def has_finite_param_leaves(tree: RationalTree) -> bool:
    """Membership test for the fragment with finitely many parameter leaves."""
    return count_param_leaves(tree) != INFINITE


def graft(tree: RationalTree, assignment: Mapping[str, RationalTree]) -> RationalTree:
    """Second-order substitution: replace each parameter leaf by a whole tree."""
    for name in tree.params():
        if name not in assignment:
            raise MissingAssignment(f"no tree assigned to parameter {name!r}")
    bases: dict[str, int] = {}
    steps: list[Step] = list(tree.steps)
    for name in tree.params():
        plug = assignment[name]
        if plug.signature != tree.signature:
            raise SignatureMismatch(f"assignment for {name!r} uses a different signature")
        bases[name] = len(steps)
        steps += _shifted(plug.steps, len(steps))
    for i, st in enumerate(tree.steps):
        if isinstance(st, LeafStep):
            plug = assignment[st.param]
            steps[i] = steps[bases[st.param] + plug.root]
    return minimize(RationalTree(tree.signature, tuple(steps), tree.root))


def _primitive_word(word: tuple[str, ...]) -> tuple[str, ...]:
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


@dataclass(frozen=True)
class Lasso:
    """Eventually periodic stream, stored in normal form.

    The period is primitive (not a proper power of a shorter word) and the
    prefix is minimal: no trailing prefix letter can be rotated into the
    period.  Normalization happens on construction, so equal streams compare
    equal structurally.
    """

    prefix: tuple[str, ...]
    period: tuple[str, ...]

    def __post_init__(self) -> None:
        prefix = tuple(self.prefix)
        period = tuple(self.period)
        if not period:
            raise ValueError("lasso period must be nonempty")
        period = _primitive_word(period)
        while prefix and prefix[-1] == period[-1]:
            period = (period[-1],) + period[:-1]
            prefix = prefix[:-1]
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "period", period)

    def unfold(self, length: int) -> tuple[str, ...]:
        """The first letters of the stream."""
        out = list(self.prefix)
        while len(out) < length:
            out.extend(self.period)
        return tuple(out[:length])


def from_lasso(lasso: Lasso, signature: Signature) -> RationalTree:
    """The closed tree denoted by the stream, as a prefix chain plus a cycle."""
    if not signature.all_unary:
        raise NonUnarySignature("lasso decoding needs an all-unary signature")
    word = lasso.prefix + lasso.period
    for letter in word:
        if letter not in signature:
            raise UndeclaredName(f"unknown symbol {letter!r} in lasso")
    total = len(word)
    loop_entry = len(lasso.prefix)
    steps = tuple(
        OpStep(word[i], (i + 1 if i + 1 < total else loop_entry,))
        for i in range(total)
    )
    return minimize(RationalTree(signature, steps, 0))


def to_lasso(tree: RationalTree) -> Lasso:
    """The stream denoted by a closed tree over an all-unary signature."""
    if not tree.signature.all_unary:
        raise NonUnarySignature("lasso encoding needs an all-unary signature")
    for st in tree.steps:
        if isinstance(st, LeafStep):
            raise HasParameters(f"tree has a parameter leaf {st.param!r}")
    seen: dict[int, int] = {}
    letters: list[str] = []
    state = tree.root
    while state not in seen:
        seen[state] = len(letters)
        st = tree.steps[state]
        assert isinstance(st, OpStep)
        letters.append(st.symbol)
        state = st.children[0]
    entry = seen[state]
    return Lasso(tuple(letters[:entry]), tuple(letters[entry:]))
