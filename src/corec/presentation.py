"""Presentations of set functors by a signature and flat equations.

A presentation quotients the flat terms over every atom set by the smallest
substitution-stable equivalence generated from its axiom pairs.  This
module decides the generated kernel on finite atom sets by union-find
saturation, checks and establishes reducedness, synthesizes explicit
constants, and approximates the induced congruences on finite and rational
trees (exact answers where a bounded search or a separating finite model
settles the question, an explicit unknown otherwise).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (
    BOTTOM,
    DEFAULT_BUDGET,
    Atom,
    FiniteTree,
    FlatTerm,
    ParamLeaf,
    Signature,
    enumerate_flat_terms,
    substitute_flat,
)
from .errors import SignatureMismatch, SizeLimitExceeded, UnboundAtom
from .rtree import (
    RationalTree,
    _truncate,
    cut,  # unused here; perfbench/tracing.py wraps presentation.cut by name
)


@dataclass(frozen=True)
class Presentation:
    """A signature together with flat equations over abstract variables."""

    signature: Signature
    axioms: tuple[tuple[FlatTerm, FlatTerm], ...] = ()

    def __post_init__(self) -> None:
        axioms = tuple((l, r) for l, r in self.axioms)
        for l, r in axioms:
            l.check(self.signature)
            r.check(self.signature)
        object.__setattr__(self, "axioms", axioms)


def _axiom_variables(left: FlatTerm, right: FlatTerm) -> tuple[Atom, ...]:
    seen: dict[Atom, None] = {}
    for a in itertools.chain(left.args, right.args):
        seen.setdefault(a, None)
    return tuple(seen)


class _UnionFind:
    """Union-find with path halving; the least member of a class is its root."""

    def __init__(self, n: int = 0) -> None:
        self.parent = list(range(n))

    def add(self) -> int:
        """A new singleton class; returns its member."""
        i = len(self.parent)
        self.parent.append(i)
        return i

    def find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if ra > rb:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


class _KernelPartition:
    """The generated kernel equivalence on all flat terms over a fixed atom set."""

    def __init__(
        self,
        presentation: Presentation,
        atoms: Sequence[Atom],
        budget: int | None = DEFAULT_BUDGET,
    ) -> None:
        self.atoms = list(dict.fromkeys(atoms))
        self.terms = enumerate_flat_terms(presentation.signature, self.atoms, budget)
        self.index = {t: i for i, t in enumerate(self.terms)}
        self._uf = _UnionFind(len(self.terms))
        work = 0
        for left, right in presentation.axioms:
            variables = _axiom_variables(left, right)
            instances = len(self.atoms) ** len(variables)
            work += instances
            if budget is not None and work > budget:
                raise SizeLimitExceeded(
                    f"axiom instantiation needs {work} steps, budget is {budget}"
                )
            for combo in itertools.product(self.atoms, repeat=len(variables)):
                env = dict(zip(variables, combo))
                li = self.index[substitute_flat(left, env)]
                ri = self.index[substitute_flat(right, env)]
                self._uf.union(li, ri)

    def root_of(self, term: FlatTerm) -> int:
        try:
            i = self.index[term]
        except KeyError:
            raise UnboundAtom(f"term {term} is not over the given atoms") from None
        return self._uf.find(i)

    def same(self, left: FlatTerm, right: FlatTerm) -> bool:
        return self.root_of(left) == self.root_of(right)

    def classes(self) -> list[list[FlatTerm]]:
        grouped: dict[int, list[FlatTerm]] = {}
        for t in self.terms:
            grouped.setdefault(self.root_of(t), []).append(t)
        return list(grouped.values())


def kernel_equal(
    presentation: Presentation,
    left: FlatTerm,
    right: FlatTerm,
    atoms: Iterable[Atom],
    budget: int | None = DEFAULT_BUDGET,
) -> bool:
    """Decide the generated kernel on the given atom set by full saturation."""
    part = _KernelPartition(presentation, list(atoms), budget)
    return part.same(left, right)


def quotient_classes(
    presentation: Presentation,
    atoms: Iterable[Atom],
    budget: int | None = DEFAULT_BUDGET,
) -> list[list[FlatTerm]]:
    """Partition all flat terms over the atoms by the generated kernel.

    The class count is the size of the presented functor's value on the
    atom set.  Classes and their members keep enumeration order.
    """
    return _KernelPartition(presentation, list(atoms), budget).classes()


def _default_probe(signature: Signature) -> int:
    return 2 * signature.max_arity


def is_reduced(
    presentation: Presentation, budget: int | None = DEFAULT_BUDGET
) -> tuple[bool, tuple[FlatTerm, FlatTerm] | None]:
    """Check reducedness on a probe atom set; returns the first violation found.

    A kernel pair violates when its left side has pairwise distinct atoms
    that do not all reappear on the right, or when both sides have pairwise
    distinct atoms but different head symbols.  A probe of twice the maximal
    arity is enough because any single violating pair fits in that many
    atoms.
    """
    probe = _default_probe(presentation.signature)
    part = _KernelPartition(presentation, range(probe), budget)
    for cls in part.classes():
        for left, right in itertools.permutations(cls, 2):
            left_distinct = len(set(left.args)) == len(left.args)
            if not left_distinct:
                continue
            if not set(left.args) <= set(right.args):
                return False, (left, right)
            right_distinct = len(set(right.args)) == len(right.args)
            if right_distinct and left.head != right.head:
                return False, (left, right)
    return True, None


def _essential_coordinates(presentation: Presentation, budget: int | None) -> Translation:
    """Moves keeping each symbol with the argument positions the kernel can observe.

    Coordinate i is inessential when replacing it by a fresh atom stays in
    the same kernel class; those positions can be dropped without changing
    the presented functor.
    """
    cache: dict[int, _KernelPartition] = {}
    out: Translation = {}
    for name, arity in presentation.signature.symbols:
        if arity == 0:
            out[name] = (name, ())
            continue
        part = cache.get(arity + 1)
        if part is None:
            part = _KernelPartition(presentation, range(arity + 1), budget)
            cache[arity + 1] = part
        base = FlatTerm(name, tuple(range(arity)))
        keep = []
        for i in range(arity):
            variant = FlatTerm(
                name, tuple(arity if j == i else j for j in range(arity))
            )
            if not part.same(base, variant):
                keep.append(i)
        out[name] = (name, tuple(keep))
    return out


def _cleanup_axioms(
    axioms: Iterable[tuple[FlatTerm, FlatTerm]]
) -> tuple[tuple[FlatTerm, FlatTerm], ...]:
    seen: set[frozenset] = set()
    out = []
    for l, r in axioms:
        if l == r:
            continue
        key = frozenset((l, r))
        if key in seen:
            continue
        seen.add(key)
        out.append((l, r))
    return tuple(out)


Translation = dict[str, tuple[str, tuple[int, ...]]]


def _identity(signature: Signature) -> Translation:
    return {n: (n, tuple(range(a))) for n, a in signature.symbols}


def _rename(
    presentation: Presentation, translation: Translation, moves: Translation
) -> tuple[Presentation, Translation]:
    """Rewrite the signature, the axioms and the translation along moves.

    moves sends each symbol to (target, positions): a term f(a0, ..., ak)
    becomes target(a_p for p in positions).  The symbols that move to
    themselves stay, with len(positions) arguments.
    """

    def move(term: FlatTerm) -> FlatTerm:
        target, positions = moves[term.head]
        return FlatTerm(target, tuple(term.args[i] for i in positions))

    new_sig = Signature(
        tuple((n, len(moves[n][1])) for n, _ in presentation.signature.symbols if moves[n][0] == n)
    )
    new_axioms = _cleanup_axioms((move(l), move(r)) for l, r in presentation.axioms)
    new_translation = {
        orig: (moves[cur][0], tuple(emb[i] for i in moves[cur][1]))
        for orig, (cur, emb) in translation.items()
    }
    return Presentation(new_sig, new_axioms), new_translation


def _merges(presentation: Presentation, budget: int | None) -> Translation:
    """Moves sending each symbol to the least name the kernel identifies it with.

    Identification up to a permutation of pairwise distinct arguments is an
    equivalence, so one walk over the names in sorted order meets each
    class's least name first; every later member moves to it along the
    first permutation, in ``itertools.permutations`` order, that fits.
    """
    sig = presentation.signature
    part = _KernelPartition(presentation, range(max(_default_probe(sig), 1)), budget)
    least: dict[int, list[str]] = {}  # per arity, the names that stay, sorted
    moves: Translation = {}
    for name in sorted(sig.names()):
        arity = sig.arity(name)
        base = FlatTerm(name, tuple(range(arity)))
        moves[name] = next(
            (
                (keep, perm)
                for keep in least.get(arity, ())
                for perm in itertools.permutations(range(arity))
                if part.same(base, FlatTerm(keep, perm))
            ),
            (name, tuple(range(arity))),
        )
        if moves[name][0] == name:
            least.setdefault(arity, []).append(name)
    return moves


def reduce_presentation(
    presentation: Presentation, budget: int | None = DEFAULT_BUDGET
) -> tuple[Presentation, Translation]:
    """Compute a reduced presentation of the same functor.

    Constants are made explicit first: a symbol all of whose argument
    positions turn out inessential denotes a constant element, and without
    a constant linked to it by an axiom that element would be lost on the
    empty atom set when the positions are dropped.  Then every inessential
    argument position is dropped, and every class of symbols the kernel
    relates by a permutation of pairwise distinct arguments is merged into
    its lexicographically least name.  Renaming along drops and merges
    keeps the presented functor, so one pass of each is enough.  The
    returned translation sends each symbol to its surviving symbol plus
    the embedding of surviving argument positions (as original coordinate
    indices); synthesized constants appear under their own names.
    """
    current = make_constants_explicit(presentation, budget)
    translation = _identity(current.signature)
    for find_moves in (_essential_coordinates, _merges):
        moves = find_moves(current, budget)
        if moves != _identity(current.signature):
            current, translation = _rename(current, translation, moves)
    return current, translation


def make_constants_explicit(
    presentation: Presentation, budget: int | None = DEFAULT_BUDGET
) -> Presentation:
    """Add a constant (and its defining axiom) for every argument-blind symbol.

    A symbol whose kernel identifies two applications with disjoint,
    pairwise distinct argument tuples denotes a single element regardless of
    its arguments; such a symbol gets a constant it collapses to, unless an
    existing constant is already in its kernel class.
    """
    current = presentation
    for name, arity in presentation.signature.symbols:
        if arity == 0:
            continue
        atoms = range(2 * arity)
        part = _KernelPartition(current, atoms, budget)
        first = FlatTerm(name, tuple(range(arity)))
        second = FlatTerm(name, tuple(range(arity, 2 * arity)))
        if not part.same(first, second):
            continue
        root = part.root_of(first)
        have = any(
            part.root_of(FlatTerm(c, ())) == root
            for c in current.signature.constant_symbols()
        )
        if have:
            continue
        fresh = f"c_{name}"
        while fresh in current.signature:
            fresh += "_"
        new_sig = Signature(current.signature.symbols + ((fresh, 0),))
        axiom = (
            FlatTerm(name, tuple(f"v{i}" for i in range(arity))),
            FlatTerm(fresh, ()),
        )
        current = Presentation(new_sig, current.axioms + (axiom,))
    return current


@dataclass(frozen=True)
class Verdict3:
    """Outcome of a bounded equivalence decision: equal, distinct, or unknown.

    ``depth`` is the truncation depth up to which two rational trees were
    compared; it is None for a comparison of finite trees.
    """

    status: str
    witness: object = None
    budget_used: int | None = None
    depth: int | None = None

    @classmethod
    def equal(cls, depth: int | None = None) -> "Verdict3":
        return cls("equal", depth=depth)

    @classmethod
    def distinct(cls, witness: object) -> "Verdict3":
        return cls("distinct", witness=witness)

    @classmethod
    def unknown(cls, budget_used: int, depth: int | None = None) -> "Verdict3":
        return cls("unknown", budget_used=budget_used, depth=depth)

    @property
    def is_equal(self) -> bool:
        return self.status == "equal"

    @property
    def is_distinct(self) -> bool:
        return self.status == "distinct"

    @property
    def is_unknown(self) -> bool:
        return self.status == "unknown"


class _TreeDag(_UnionFind):
    """Hash-consed term dag with union-find and congruence closure.

    Congruence closure follows Downey, Sethi and Tarjan (1980): a signature
    table maps (symbol, classes of the children) to an op node, every class
    keeps the op nodes with a child in it (its use-list), and a union queues
    the uses of the absorbed class.  Closing rehashes only queued nodes, so
    its cost follows the merges instead of the dag's size.
    """

    def __init__(self) -> None:
        super().__init__()
        self.label: list[str] = []
        self.kids: list[tuple[int, ...] | None] = []  # None for a parameter leaf
        self.by_head: dict[str, list[int]] = {}  # op nodes per symbol, ascending
        self._memo: dict[tuple, int] = {}
        self._uses: list[list[int]] = []  # per class root
        self._signatures: dict[tuple, int] = {}
        self._queue: list[int] = []  # op nodes whose signature may have changed

    def __len__(self) -> int:
        return len(self.label)

    def node(self, label: str, kids: tuple[int, ...] | None) -> int:
        """The one node with this label and children; ``kids=None`` makes a parameter leaf."""
        key = (label, kids)
        node = self._memo.get(key)
        if node is not None:
            return node
        self.label.append(label)
        self.kids.append(kids)
        self._uses.append([])
        node = self._memo[key] = self.add()
        if kids is not None:
            self.by_head.setdefault(label, []).append(node)
            for c in kids:
                self._uses[self.find(c)].append(node)
            self._queue.append(node)
        return node

    def intern(self, tree: FiniteTree) -> int:
        return _fold_tree(tree, lambda name: self.node(name, None), self.node)

    def truncations(self, tree: RationalTree, depth: int) -> list[int]:
        """Intern the truncations of a rational tree at depths 1..depth.

        One node per (state, remaining depth) pair serves every depth.
        """
        return _truncate(tree, depth, self.node, every_depth=True)

    def symbols(self) -> Iterable[tuple[str, int]]:
        """Each (symbol, number of children) of the op nodes once, in node order."""
        return dict.fromkeys(
            (label, len(kids)) for label, kids in zip(self.label, self.kids) if kids is not None
        )

    def below(self, *roots: int) -> list[int]:
        """The nodes reachable from the roots, ascending: children before parents."""
        seen = set(roots)
        stack = list(roots)
        while stack:
            for c in self.kids[stack.pop()] or ():
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        return sorted(seen)

    def union(self, a: int, b: int) -> bool:
        keep, gone = sorted((self.find(a), self.find(b)))
        if not super().union(keep, gone):
            return False
        moved = self._uses[gone]
        self._uses[gone] = []
        self._uses[keep] += moved
        self._queue += moved
        return True

    def close_congruence(self) -> None:
        """Merge nodes with the same symbol and classwise-equal children."""
        find, table, queue = self.find, self._signatures, self._queue
        while queue:
            node = queue.pop()
            key = (self.label[node], tuple([find(c) for c in self.kids[node]]))
            other = table.setdefault(key, node)
            if other != node:
                self.union(other, node)


def _fold_tree(tree: FiniteTree, leaf, node):
    """Fold a finite-tree dag bottom-up, each shared node once, without recursion.

    ``leaf(name)`` gives a parameter leaf's value and ``node(symbol, values)``
    an inner node's from its children's values.  Nodes are folded in the
    post-order of a left-to-right walk, so side effects happen in that order.
    """
    memo: dict[int, object] = {}
    stack: list = [tree]  # None on top of a node: its children are folded
    while stack:
        n = stack.pop()
        if n is None:
            n = stack.pop()
            memo[id(n)] = node(n.symbol, tuple([memo[id(c)] for c in n.children]))
        elif id(n) in memo:
            continue
        elif isinstance(n, ParamLeaf):
            memo[id(n)] = leaf(n.name)
        else:
            stack += (n, None)
            stack.extend(reversed(n.children))
    return memo[id(tree)]


def _check_arities(presentation: Presentation, symbols: Iterable[tuple[str, int]]) -> None:
    """Reject a symbol that the presentation declares with another arity."""
    signature = presentation.signature
    for name, arity in symbols:
        if name in signature and signature.arity(name) != arity:
            raise SignatureMismatch(f"{name!r} has another arity in the presentation")


def _model_refutation(models: Sequence, dag: _TreeDag, left: int, right: int, budget: int | None):
    """A (model, valuation) separating two dag nodes, if some model does."""
    if not models:
        return None
    nodes = dag.below(left, right)
    labels = sorted({dag.label[n] for n in nodes if dag.kids[n] is None})
    checked = 0
    for index, model in enumerate(models):
        carrier = list(model.carrier)
        for combo in itertools.product(carrier, repeat=len(labels)):
            checked += 1
            if budget is not None and checked > budget:
                return None
            env = dict(zip(labels, combo))
            value: dict[int, object] = {}
            for n in nodes:
                if dag.kids[n] is None:
                    value[n] = env[dag.label[n]]
                else:
                    value[n] = model.apply(dag.label[n], tuple([value[c] for c in dag.kids[n]]))
            if value[left] != value[right]:
                return {"model": index, "valuation": env, "values": (value[left], value[right])}
    return None


def _refute(
    presentation: Presentation,
    dag: _TreeDag,
    goals: list[tuple[int, int]],
    budget: int | None,
    models: Sequence,
):
    """The first goal pair, as (index, witness), that a model separates or, without axioms, syntax."""
    for index, (left, right) in enumerate(goals):
        witness = _model_refutation(models, dag, left, right, budget)
        if witness is None and not presentation.axioms and left != right:
            # hash-consing makes equal trees one node
            witness = {"reason": "no axioms; trees differ syntactically"}
        if witness is not None:
            return index, witness
    return None


def _saturate(
    presentation: Presentation,
    dag: _TreeDag,
    goals: list[tuple[int, int]],
    budget: int | None,
    depth: int | None = None,
) -> Verdict3:
    """Saturate the dag under the axioms until every goal pair is one class.

    Rounds alternate congruence closure with one pass of every directed
    axiom over the op nodes present at the round's start; goals are checked
    after each closure.  Each merge an axiom instance makes costs one unit
    of budget; past the budget, or after a round with no merge, the answer
    is unknown.
    """
    dag.node(BOTTOM, None)
    directed = []
    for l, r in presentation.axioms:
        for src, dst in ((l, r), (r, l)):
            fresh = [v for v in _axiom_variables(dst, dst) if v not in set(src.args)]
            directed.append((src, dst, fresh))
    find = dag.find
    spent = 0
    progress = True
    while True:
        dag.close_congruence()
        goals = [(a, b) for a, b in goals if find(a) != find(b)]
        if not goals:
            return Verdict3.equal(depth)
        if not progress:
            return Verdict3.unknown(spent, depth)
        progress = False
        node_count = len(dag)
        class_nodes = [i for i, p in enumerate(dag.parent) if i == p]  # least members are roots
        for src, dst, fresh in directed:
            for node in dag.by_head.get(src.head, ()):
                if node >= node_count:
                    break
                assignment: dict[Atom, int] = {}
                for var, child in zip(src.args, dag.kids[node]):
                    if var not in assignment:
                        assignment[var] = child
                    elif find(assignment[var]) != find(child):
                        break
                else:
                    for combo in itertools.product(class_nodes, repeat=len(fresh)):
                        env = dict(assignment)
                        env.update(zip(fresh, combo))
                        instance = dag.node(dst.head, tuple([env[v] for v in dst.args]))
                        if find(node) != find(instance):
                            dag.union(node, instance)
                            progress = True
                            spent += 1
                            if budget is not None and spent > budget:
                                return Verdict3.unknown(spent, depth)


def tree_equiv_bounded(
    presentation: Presentation,
    left: FiniteTree,
    right: FiniteTree,
    budget: int | None = DEFAULT_BUDGET,
    models: Sequence = (),
) -> Verdict3:
    """Bounded decision of the finite-application congruence on finite trees.

    Distinct is certified by a registered finite model that satisfies the
    presentation and evaluates the trees differently.  Equal is certified by
    congruence-closure saturation of the axioms over the trees' subterm dag:
    axiom sides are matched with nonlinear variables compared classwise, and
    variables appearing on one side only range over subtrees already present
    in the universe.  That restriction keeps the search finite but
    incomplete, hence the unknown outcome when the budget runs out or
    saturation stalls.  A symbol of the trees that the presentation declares
    with another arity raises SignatureMismatch.
    """
    dag = _TreeDag()
    goal = (dag.intern(left), dag.intern(right))
    _check_arities(presentation, dag.symbols())
    refuted = _refute(presentation, dag, [goal], budget, models)
    if refuted is not None:
        return Verdict3.distinct(refuted[1])
    return _saturate(presentation, dag, [goal], budget)


def rtree_equiv_upto(
    presentation: Presentation,
    left: RationalTree,
    right: RationalTree,
    depth: int,
    budget: int | None = DEFAULT_BUDGET,
    models: Sequence = (),
) -> Verdict3:
    """Congruence comparison of two rational trees at every depth 1..depth.

    The truncations at all depths go into one dag, where a (state, remaining
    depth) node is shared by every depth, and one saturation decides them
    together.  The shallowest depth a model (or, without axioms, syntax)
    refutes refutes the pair; equality holds only up to the depth checked,
    which the verdict records; otherwise the answer is unknown.  A symbol
    that the presentation declares with another arity than a tree does
    raises SignatureMismatch; symbols on one side only are fine.
    """
    _check_arities(presentation, left.signature.symbols + right.signature.symbols)
    dag = _TreeDag()
    goals = list(zip(dag.truncations(left, depth), dag.truncations(right, depth)))
    refuted = _refute(presentation, dag, goals, budget, models)
    if refuted is not None:
        index, witness = refuted
        return Verdict3.distinct({"level": index + 1, "witness": witness})
    return _saturate(presentation, dag, goals, budget, depth)
