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
    same system literally.  Only the reachable steps are validated (arity,
    child range, step type): an unreachable state is dropped unchecked, so
    validation costs time in the reachable part only.  Structural equality
    is *not* bisimilarity; use bisim_equal for tree equality.
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
        order = [self.root]
        renum = {self.root: 0}
        new_steps: list[Step] = []
        for s in order:  # order grows while it is walked
            st = steps[s]
            if isinstance(st, OpStep):
                arity = self.signature.arity(st.symbol)
                if len(st.children) != arity:
                    raise ArityMismatch(
                        f"state {s}: {st.symbol!r} has arity {arity}, got {len(st.children)} children"
                    )
                for c in st.children:
                    if not 0 <= c < len(steps):
                        raise ValueError(f"state {s} points at missing state {c}")
                    if c not in renum:
                        renum[c] = len(order)
                        order.append(c)
                new_steps.append(OpStep(st.symbol, tuple(renum[c] for c in st.children)))
            elif isinstance(st, LeafStep):
                new_steps.append(st)
            else:
                raise ValueError(f"state {s} has an invalid step {st!r}")
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


def _children(step: Step) -> tuple[int, ...]:
    return step.children if isinstance(step, OpStep) else ()


def _dfs(
    steps: Sequence[Step], root: int, within: set[int] | None = None
) -> tuple[list[int], set[int]]:
    """Depth-first walk from the root, children in order, without recursion.

    Returns the visited states in post-order and the targets of back edges,
    the edges into a state still on the current path; there is a back edge
    exactly when the walked part has a cycle.  ``within`` restricts the walk
    to a set of states.
    """
    postorder: list[int] = []
    back: set[int] = set()
    on_path = {root}
    seen = {root}
    stack = [(root, iter(_children(steps[root])))]
    while stack:
        s, kids = stack[-1]
        for c in kids:
            if within is not None and c not in within:
                continue
            if c in on_path:
                back.add(c)
            elif c not in seen:
                seen.add(c)
                on_path.add(c)
                stack.append((c, iter(_children(steps[c]))))
                break
        else:
            stack.pop()
            on_path.discard(s)
            postorder.append(s)
    return postorder, back


def _levels(tree: RationalTree, depth: int) -> list[set[int]]:
    """The states at each depth 0..depth of the unfolding, top-down."""
    levels = [{tree.root}]
    for _ in range(depth):
        below: set[int] = set()
        for s in levels[-1]:
            st = tree.steps[s]
            if isinstance(st, OpStep):
                below.update(st.children)
        levels.append(below)
    return levels


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


def _quotient(steps: Sequence[Step], block: Sequence[int]) -> tuple[Step, ...]:
    """The steps of the quotient system, one state per block of a bisimulation."""
    rep_step: dict[int, Step] = {}
    for i, st in enumerate(steps):
        b = block[i]
        if b in rep_step:
            continue
        if isinstance(st, OpStep):
            rep_step[b] = OpStep(st.symbol, tuple(block[c] for c in st.children))
        else:
            rep_step[b] = st
    return tuple(rep_step[b] for b in range(len(rep_step)))


def minimize(tree: RationalTree) -> RationalTree:
    """The unique smallest system bisimilar to the input."""
    block = _refine(tree.steps)
    return RationalTree(tree.signature, _quotient(tree.steps, block), block[tree.root])


def bisim_equal(left: RationalTree, right: RationalTree) -> bool:
    """True iff the two systems unfold to the same infinite tree."""
    if left.signature != right.signature:
        raise SignatureMismatch("cannot compare trees over different signatures")
    offset = len(left.steps)
    block = _refine(list(left.steps) + _shifted(right.steps, offset))
    return block[left.root] == block[offset + right.root]


def _truncate(tree: RationalTree, depth: int, make, every_depth: bool = False) -> list:
    """Build the unfolding truncated at the given depth, bottom-up.

    ``make(label, None)`` builds a leaf and ``make(symbol, kids)`` an inner
    node; it is called once per (state, remaining depth) pair reachable
    from the root.  The states needed at each remaining depth are collected
    top-down first, then each level is built from the one below it, so the
    walk needs no recursion at any depth.  A tree that already uses the
    reserved cut label raises ReservedParameter.  Returns the root of the
    truncation at the given depth, or with ``every_depth`` the roots of the
    truncations at depths 1..depth, which share every (state, remaining
    depth) pair.
    """
    steps = tree.steps
    for st in steps:
        if isinstance(st, LeafStep) and st.param == BOTTOM:
            raise ReservedParameter("tree already uses the reserved cut label")
    if depth < 0:
        raise ValueError("cut depth must be nonnegative")
    needed = _levels(tree, depth)  # needed[i]: states at remaining depth depth - i
    if every_depth:  # the depth-j truncation needs depth i <= j at remaining depth j - i
        for i in range(1, len(needed)):
            needed[i] |= needed[i - 1]
    built = {s: make(BOTTOM, None) for s in needed.pop()}
    roots = []
    while needed:
        level: dict = {}
        for s in needed.pop():
            st = steps[s]
            if isinstance(st, LeafStep):
                level[s] = make(st.param, None)
            else:
                level[s] = make(st.symbol, tuple(built[c] for c in st.children))
        built = level
        if every_depth:
            roots.append(built[tree.root])
    return roots if every_depth else [built[tree.root]]


def _finite_node(label: str, kids: tuple | None) -> FiniteTree:
    return ParamLeaf(label) if kids is None else Op(label, kids)


def cut(tree: RationalTree, depth: int) -> FiniteTree:
    """Truncate the unfolding at the given depth.

    Nodes strictly above the cut are copied; every node at the cut depth is
    replaced by the reserved bottom leaf.  Shared (state, depth) pairs reuse
    one result object, so the output is a compact dag.
    """
    return _truncate(tree, depth, _finite_node)[0]


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


def count_param_leaves(tree: RationalTree):
    """Number of parameter-leaf occurrences in the unfolded tree.

    Returns INFINITE when a leaf is reachable from a cycle; otherwise the
    exact occurrence count by path counting, saturated at LEAF_COUNT_CAP.
    """
    reach = _leaf_reaching_states(tree)
    if tree.root not in reach:
        return 0
    postorder, back = _dfs(tree.steps, tree.root, reach)
    if back:
        return INFINITE
    counts: dict[int, int] = {}
    for v in postorder:  # children come first
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
    """The closed tree denoted by the stream, as a prefix chain plus a cycle.

    Minimal as built: in a normal-form lasso no two states read the same stream.
    """
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
    return RationalTree(signature, steps, 0)


def to_lasso(tree: RationalTree) -> Lasso:
    """The stream denoted by a closed tree over an all-unary signature."""
    if not tree.signature.all_unary:
        raise NonUnarySignature("lasso encoding needs an all-unary signature")
    for st in tree.steps:
        if isinstance(st, LeafStep):
            raise HasParameters(f"tree has a parameter leaf {st.param!r}")
    steps = tree.steps
    return _walk_lasso(tree.root, lambda s: (steps[s].symbol, steps[s].children[0]))


def _walk_lasso(start, step) -> Lasso:
    """The stream read by following ``step(state) -> (letter, next state)``.

    The walk stops at the first repeated state, which is where the period
    begins.
    """
    seen: dict = {}
    letters: list[str] = []
    state = start
    while state not in seen:
        seen[state] = len(letters)
        letter, state = step(state)
        letters.append(letter)
    entry = seen[state]
    return Lasso(tuple(letters[:entry]), tuple(letters[entry:]))
