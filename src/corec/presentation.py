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
from typing import Iterable, Mapping, Sequence

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
    tree_params,
)
from .errors import SizeLimitExceeded, UnboundAtom
from .rtree import RationalTree, cut


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
    presentation: Presentation,
    probe_size: int | None = None,
    budget: int | None = DEFAULT_BUDGET,
) -> tuple[bool, tuple[FlatTerm, FlatTerm] | None]:
    """Check reducedness on a probe atom set; returns the first violation found.

    A kernel pair violates when its left side has pairwise distinct atoms
    that do not all reappear on the right, or when both sides have pairwise
    distinct atoms but different head symbols.  A probe of twice the maximal
    arity is enough because any single violating pair fits in that many
    atoms.
    """
    needed = _default_probe(presentation.signature)
    if probe_size is None:
        probe_size = needed
    elif probe_size < needed:
        raise ValueError(f"probe_size must be at least {needed}")
    part = _KernelPartition(presentation, range(probe_size), budget)
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


def _essential_coordinates(
    presentation: Presentation, budget: int | None
) -> dict[str, tuple[int, ...]]:
    """Per symbol, the argument positions whose value the kernel can observe.

    Coordinate i is inessential when replacing it by a fresh atom stays in
    the same kernel class; those positions can be dropped without changing
    the presented functor.
    """
    cache: dict[int, _KernelPartition] = {}
    out: dict[str, tuple[int, ...]] = {}
    for name, arity in presentation.signature.symbols:
        if arity == 0:
            out[name] = ()
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
        out[name] = tuple(keep)
    return out


def _translate_term(term: FlatTerm, keep: Mapping[str, tuple[int, ...]]) -> FlatTerm:
    positions = keep[term.head]
    return FlatTerm(term.head, tuple(term.args[i] for i in positions))


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


def _drop_inessential(
    presentation: Presentation, translation: Translation, budget: int | None
) -> tuple[Presentation, Translation]:
    keep = _essential_coordinates(presentation, budget)
    if all(len(keep[n]) == a for n, a in presentation.signature.symbols):
        return presentation, translation
    new_sig = Signature(
        tuple((n, len(keep[n])) for n, _ in presentation.signature.symbols)
    )
    new_axioms = _cleanup_axioms(
        (_translate_term(l, keep), _translate_term(r, keep))
        for l, r in presentation.axioms
    )
    new_translation = {
        orig: (cur, tuple(emb[i] for i in keep[cur]))
        for orig, (cur, emb) in translation.items()
    }
    return Presentation(new_sig, new_axioms), new_translation


def _find_merge(
    presentation: Presentation, budget: int | None
) -> tuple[str, str, tuple[int, ...]] | None:
    """A pair of distinct symbols the kernel identifies up to an argument permutation."""
    sig = presentation.signature
    probe = max(_default_probe(sig), 1)
    part = _KernelPartition(presentation, range(probe), budget)
    by_arity: dict[int, list[str]] = {}
    for name, arity in sig.symbols:
        by_arity.setdefault(arity, []).append(name)
    for arity, names in sorted(by_arity.items()):
        for keep_name, drop_name in itertools.combinations(sorted(names), 2):
            base = FlatTerm(drop_name, tuple(range(arity)))
            for perm in itertools.permutations(range(arity)):
                other = FlatTerm(keep_name, perm)
                if part.same(base, other):
                    return drop_name, keep_name, perm
    return None


def _apply_merge(
    presentation: Presentation,
    translation: Translation,
    drop_name: str,
    keep_name: str,
    perm: tuple[int, ...],
) -> tuple[Presentation, Translation]:
    def rewrite(term: FlatTerm) -> FlatTerm:
        if term.head != drop_name:
            return term
        return FlatTerm(keep_name, tuple(term.args[i] for i in perm))

    new_sig = Signature(
        tuple((n, a) for n, a in presentation.signature.symbols if n != drop_name)
    )
    new_axioms = _cleanup_axioms(
        (rewrite(l), rewrite(r)) for l, r in presentation.axioms
    )
    new_translation = {}
    for orig, (cur, emb) in translation.items():
        if cur == drop_name:
            new_translation[orig] = (keep_name, tuple(emb[i] for i in perm))
        else:
            new_translation[orig] = (cur, emb)
    return Presentation(new_sig, new_axioms), new_translation


def reduce_presentation(
    presentation: Presentation, budget: int | None = DEFAULT_BUDGET
) -> tuple[Presentation, Translation]:
    """Compute a reduced presentation of the same functor.

    Constants are made explicit first: a symbol all of whose argument
    positions turn out inessential denotes a constant element, and without
    a constant linked to it by an axiom that element would be lost on the
    empty atom set when the positions are dropped.  Then every inessential
    argument position is dropped, and symbol pairs the kernel relates by a
    permutation of pairwise distinct arguments are merged repeatedly,
    keeping the lexicographically least name of each merge class.  The
    returned translation sends each symbol to its surviving symbol plus
    the embedding of surviving argument positions (as original coordinate
    indices); synthesized constants appear under their own names.
    """
    presentation = make_constants_explicit(presentation, budget)
    translation: Translation = {
        n: (n, tuple(range(a))) for n, a in presentation.signature.symbols
    }
    current = presentation
    for _ in range(len(presentation.signature.symbols) + 1):
        current, translation = _drop_inessential(current, translation, budget)
        merged = False
        while True:
            found = _find_merge(current, budget)
            if found is None:
                break
            current, translation = _apply_merge(current, translation, *found)
            merged = True
        if not merged:
            break
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
    """Outcome of a bounded equivalence decision: equal, distinct, or unknown."""

    status: str
    witness: object = None
    budget_used: int | None = None

    @classmethod
    def equal(cls) -> "Verdict3":
        return cls("equal")

    @classmethod
    def distinct(cls, witness: object) -> "Verdict3":
        return cls("distinct", witness=witness)

    @classmethod
    def unknown(cls, budget_used: int) -> "Verdict3":
        return cls("unknown", budget_used=budget_used)

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
    """Hash-consed term dag with union-find and congruence closure."""

    def __init__(self) -> None:
        super().__init__()
        self.kind: list[str] = []
        self.label: list[str] = []
        self.kids: list[tuple[int, ...]] = []
        self._memo: dict[tuple, int] = {}

    def __len__(self) -> int:
        return len(self.kind)

    def _new(self, kind: str, label: str, kids: tuple[int, ...]) -> int:
        self.kind.append(kind)
        self.label.append(label)
        self.kids.append(kids)
        return self.add()

    def leaf(self, label: str) -> int:
        key = ("leaf", label)
        node = self._memo.get(key)
        if node is None:
            node = self._new("leaf", label, ())
            self._memo[key] = node
        return node

    def op(self, symbol: str, kids: tuple[int, ...]) -> int:
        key = ("op", symbol, kids)
        node = self._memo.get(key)
        if node is None:
            node = self._new("op", symbol, kids)
            self._memo[key] = node
        return node

    def intern(self, tree: FiniteTree) -> int:
        by_id: dict[int, int] = {}

        def go(node: FiniteTree) -> int:
            hit = by_id.get(id(node))
            if hit is not None:
                return hit
            if isinstance(node, ParamLeaf):
                out = self.leaf(node.name)
            else:
                out = self.op(node.symbol, tuple(go(c) for c in node.children))
            by_id[id(node)] = out
            return out

        return go(tree)

    def close_congruence(self) -> None:
        """Merge nodes with the same symbol and classwise-equal children."""
        while True:
            changed = False
            table: dict[tuple, int] = {}
            for i in range(len(self.kind)):
                if self.kind[i] != "op":
                    continue
                key = (self.label[i], tuple(self.find(c) for c in self.kids[i]))
                prev = table.get(key)
                if prev is None:
                    table[key] = i
                elif self.union(prev, i):
                    changed = True
            if not changed:
                return


def _eval_tree_in_model(model, tree: FiniteTree, env: Mapping[str, object]):
    memo: dict[int, object] = {}

    def go(node: FiniteTree):
        key = id(node)
        if key in memo:
            return memo[key]
        if isinstance(node, ParamLeaf):
            value = env[node.name]
        else:
            value = model.apply(node.symbol, tuple(go(c) for c in node.children))
        memo[key] = value
        return value

    return go(tree)


def _model_refutation(
    models: Sequence, left: FiniteTree, right: FiniteTree, budget: int | None
):
    """A (model, valuation) separating the two trees, if some model does."""
    labels = sorted(tree_params(left) | tree_params(right))
    checked = 0
    for index, model in enumerate(models):
        carrier = list(model.carrier)
        for combo in itertools.product(carrier, repeat=len(labels)):
            checked += 1
            if budget is not None and checked > budget:
                return None
            env = dict(zip(labels, combo))
            lv = _eval_tree_in_model(model, left, env)
            rv = _eval_tree_in_model(model, right, env)
            if lv != rv:
                return {"model": index, "valuation": env, "values": (lv, rv)}
    return None


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
    saturation stalls.
    """
    witness = _model_refutation(models, left, right, budget)
    if witness is not None:
        return Verdict3.distinct(witness)
    if not presentation.axioms:
        if left == right:
            return Verdict3.equal()
        return Verdict3.distinct({"reason": "no axioms; trees differ syntactically"})

    dag = _TreeDag()
    left_id = dag.intern(left)
    right_id = dag.intern(right)
    dag.leaf(BOTTOM)
    directed = []
    for l, r in presentation.axioms:
        directed.append((l, r))
        directed.append((r, l))
    spent = 0
    while True:
        dag.close_congruence()
        if dag.find(left_id) == dag.find(right_id):
            return Verdict3.equal()
        class_nodes = sorted({dag.find(i) for i in range(len(dag))})
        progress = False
        node_count = len(dag)
        for src, dst in directed:
            fresh_vars = [v for v in _axiom_variables(dst, dst) if v not in set(src.args)]
            for node in range(node_count):
                if dag.kind[node] != "op" or dag.label[node] != src.head:
                    continue
                assignment: dict[Atom, int] = {}
                ok = True
                for pos, var in enumerate(src.args):
                    child = dag.kids[node][pos]
                    if var in assignment:
                        if dag.find(assignment[var]) != dag.find(child):
                            ok = False
                            break
                    else:
                        assignment[var] = child
                if not ok:
                    continue
                for combo in itertools.product(class_nodes, repeat=len(fresh_vars)):
                    env = dict(assignment)
                    env.update(zip(fresh_vars, combo))
                    instance = dag.op(
                        dst.head, tuple(env[v] for v in dst.args)
                    )
                    if dag.union(node, instance):
                        progress = True
                        spent += 1
                        if budget is not None and spent > budget:
                            return Verdict3.unknown(spent)
        if not progress:
            dag.close_congruence()
            if dag.find(left_id) == dag.find(right_id):
                return Verdict3.equal()
            return Verdict3.unknown(spent)


def rtree_equiv_upto(
    presentation: Presentation,
    left: RationalTree,
    right: RationalTree,
    depth: int,
    budget: int | None = DEFAULT_BUDGET,
    models: Sequence = (),
) -> Verdict3:
    """Level-by-level congruence comparison of two rational trees.

    Compares the depth-j truncations for every j up to the requested depth.
    One refuted level refutes the pair; equality holds only up to the depth
    actually checked; unknown levels make the whole answer unknown.
    """
    unknown: Verdict3 | None = None
    for level in range(1, depth + 1):
        verdict = tree_equiv_bounded(
            presentation, cut(left, level), cut(right, level), budget, models
        )
        if verdict.is_distinct:
            return Verdict3.distinct({"level": level, "witness": verdict.witness})
        if verdict.is_unknown:
            unknown = verdict
    return unknown if unknown is not None else Verdict3.equal()
