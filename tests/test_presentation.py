import itertools

import pytest
from hypothesis import event, given, settings, strategies as st

from corec.core import BOTTOM, ParamLeaf, Signature, flat, op
from corec.errors import SignatureMismatch, SizeLimitExceeded
from corec.presentation import (
    Presentation,
    Verdict3,
    _KernelPartition,
    _UnionFind,
    _axiom_variables,
    _essential_coordinates,
    _fold_tree,
    _identity,
    _rename,
    is_reduced,
    kernel_equal,
    make_constants_explicit,
    quotient_classes,
    reduce_presentation,
    rtree_equiv_upto,
    tree_equiv_bounded,
)
from corec.rtree import LeafStep, OpStep, RationalTree, cut
from corec.checker import FiniteAlgebra, satisfies_presentation

SIG_US = Signature((("u", 2), ("s", 1)))

COMM = Presentation(SIG_US, ((flat("u", "p", "q"), flat("u", "q", "p")),))
SEMILATTICE = Presentation(
    SIG_US,
    (
        (flat("u", "p", "q"), flat("u", "q", "p")),
        (flat("u", "p", "p"), flat("s", "p")),
    ),
)

SIG_PADDED = Signature((("u", 2), ("s", 1), ("sigma", 2)))
PADDED = Presentation(
    SIG_PADDED,
    (
        (flat("u", "p", "q"), flat("u", "q", "p")),
        (flat("u", "p", "p"), flat("s", "p")),
        (flat("sigma", "p", "q"), flat("s", "p")),
    ),
)

# Three-element join semilattice {a, b, j} with a, b incomparable; satisfies
# commutativity and idempotence, so it separates terms the kernel keeps apart.
JOIN3 = FiniteAlgebra(
    SIG_US,
    ("a", "b", "j"),
    {
        "u": {
            ("a", "a"): "a", ("a", "b"): "j", ("a", "j"): "j",
            ("b", "a"): "j", ("b", "b"): "b", ("b", "j"): "j",
            ("j", "a"): "j", ("j", "b"): "j", ("j", "j"): "j",
        },
        "s": {("a",): "a", ("b",): "b", ("j",): "j"},
    },
)


class TestKernelEqual:
    def test_direct_axiom_instance(self):
        assert kernel_equal(COMM, flat("u", 1, 2), flat("u", 2, 1), [1, 2])

    def test_idempotence_instance(self):
        assert kernel_equal(SEMILATTICE, flat("u", 1, 1), flat("s", 1), [1, 2])

    def test_unrelated_terms(self):
        # oracle: full saturation over the six flat terms on two atoms
        classes = quotient_classes(SEMILATTICE, [1, 2])
        assert len(classes) == 3
        assert not kernel_equal(SEMILATTICE, flat("u", 1, 2), flat("s", 1), [1, 2])

    def test_is_equivalence(self):
        atoms = [1, 2]
        from corec.core import enumerate_flat_terms

        terms = enumerate_flat_terms(SEMILATTICE.signature, atoms)
        for t in terms:
            assert kernel_equal(SEMILATTICE, t, t, atoms)
        for t in terms:
            for u in terms:
                assert kernel_equal(SEMILATTICE, t, u, atoms) == kernel_equal(
                    SEMILATTICE, u, t, atoms
                )

    def test_substitution_stability(self):
        from corec.core import enumerate_flat_terms, substitute_flat

        atoms = [1, 2, 3]
        collapse = {1: 1, 2: 1, 3: 3}
        terms = enumerate_flat_terms(SEMILATTICE.signature, atoms)
        for t in terms:
            for u in terms:
                if kernel_equal(SEMILATTICE, t, u, atoms):
                    assert kernel_equal(
                        SEMILATTICE,
                        substitute_flat(t, collapse),
                        substitute_flat(u, collapse),
                        atoms,
                    )

    def test_budget(self):
        with pytest.raises(SizeLimitExceeded):
            kernel_equal(SEMILATTICE, flat("s", 0), flat("s", 1), range(40), budget=100)


class TestQuotientClasses:
    def test_semilattice_on_two_atoms(self):
        classes = quotient_classes(SEMILATTICE, [1, 2])
        as_sets = [frozenset(c) for c in classes]
        assert frozenset({flat("u", 1, 1), flat("s", 1)}) in as_sets
        assert frozenset({flat("u", 2, 2), flat("s", 2)}) in as_sets
        assert frozenset({flat("u", 1, 2), flat("u", 2, 1)}) in as_sets
        assert len(classes) == 3

    def test_no_axioms_gives_singletons(self):
        empty = Presentation(SIG_US, ())
        classes = quotient_classes(empty, [1, 2])
        assert len(classes) == 2**2 + 2
        assert all(len(c) == 1 for c in classes)

    def test_constant_over_empty_atoms(self):
        sig = Signature((("c", 0),))
        classes = quotient_classes(Presentation(sig, ()), [])
        assert len(classes) == 1


class TestIsReduced:
    def test_semilattice_is_reduced(self):
        ok, violation = is_reduced(SEMILATTICE)
        assert ok and violation is None

    def test_padded_presentation_is_not(self):
        ok, violation = is_reduced(PADDED)
        assert not ok
        left, right = violation
        assert {left.head, right.head} <= {"sigma", "s", "u"}

    def test_no_axioms_reduced(self):
        ok, _ = is_reduced(Presentation(SIG_US, ()))
        assert ok

    def test_distinct_constants_not_reduced(self):
        sig = Signature((("c", 0), ("d", 0)))
        p = Presentation(sig, ((flat("c"), flat("d")),))
        ok, violation = is_reduced(p)
        assert not ok and violation is not None


class TestReduce:
    def test_worked_example(self):
        reduced, translation = reduce_presentation(PADDED)
        assert set(reduced.signature.names()) == {"u", "s"}
        assert reduced.signature.arity("u") == 2
        assert reduced.signature.arity("s") == 1
        ok, _ = is_reduced(reduced)
        assert ok
        assert translation["sigma"] == ("s", (0,))
        assert translation["u"] == ("u", (0, 1))
        # oracle: the reduction presents the same functor size-wise
        for size in (0, 1, 2, 3):
            atoms = list(range(size))
            assert len(quotient_classes(PADDED, atoms)) == len(
                quotient_classes(reduced, atoms)
            )

    def test_idempotent_on_reduced_input(self):
        reduced, translation = reduce_presentation(SEMILATTICE)
        assert reduced == SEMILATTICE
        assert translation == {"u": ("u", (0, 1)), "s": ("s", (0,))}

    def test_single_symbol_no_axioms(self):
        p = Presentation(Signature((("f", 2),)), ())
        reduced, translation = reduce_presentation(p)
        assert reduced == p
        assert translation == {"f": ("f", (0, 1))}

    def test_constant_merge(self):
        sig = Signature((("c", 0), ("d", 0)))
        p = Presentation(sig, ((flat("c"), flat("d")),))
        reduced, translation = reduce_presentation(p)
        assert reduced.signature.names() == ("c",)
        assert translation["d"] == ("c", ())
        ok, _ = is_reduced(reduced)
        assert ok

    def test_merge_with_argument_permutation(self):
        sig = Signature((("sigma", 2), ("tau", 2)))
        p = Presentation(sig, ((flat("sigma", "p", "q"), flat("tau", "q", "p")),))
        reduced, translation = reduce_presentation(p)
        assert reduced.signature.names() == ("sigma",)
        kept, embedding = translation["tau"]
        assert kept == "sigma" and sorted(embedding) == [0, 1]
        # the translated symbol must denote the same function of its arguments
        from corec.core import substitute_flat

        for size in (0, 1, 2, 3):
            atoms = list(range(size))
            assert len(quotient_classes(p, atoms)) == len(
                quotient_classes(reduced, atoms)
            )
        # spot check the recorded permutation: tau(a, b) = sigma at the
        # embedded coordinates, verified through the original kernel
        a, b = 0, 1
        translated = flat(kept, *[(a, b)[i] for i in embedding])
        assert kernel_equal(p, flat("tau", a, b), flat("sigma", *translated.args), [0, 1])

    def test_blind_symbol_becomes_explicit_constant(self):
        # a symbol with no essential coordinates denotes a constant element;
        # reduction must keep that element visible on the empty atom set
        p = Presentation(
            Signature((("sigma", 1), ("tau", 0))),
            ((flat("sigma", "x"), flat("sigma", "z")),),
        )
        reduced, translation = reduce_presentation(p)
        ok, violation = is_reduced(reduced)
        assert ok, violation
        assert all(arity == 0 for _, arity in reduced.signature.symbols)
        assert len(reduced.signature.symbols) == 2
        kept, embedding = translation["sigma"]
        assert embedding == () and kept in reduced.signature
        explicit = make_constants_explicit(p)
        for size in (0, 1, 2, 3):
            atoms = list(range(size))
            assert len(quotient_classes(explicit, atoms)) == len(
                quotient_classes(reduced, atoms)
            )

    def test_dropped_variable_on_other_side(self):
        sig = Signature((("u", 2), ("v", 1)))
        p = Presentation(sig, ((flat("u", "p", "q"), flat("v", "q")),))
        reduced, _ = reduce_presentation(p)
        ok, violation = is_reduced(reduced)
        assert ok, violation
        for size in (0, 1, 2, 3):
            atoms = list(range(size))
            assert len(quotient_classes(p, atoms)) == len(
                quotient_classes(reduced, atoms)
            )


# --- the round loop that one pass of drops and merges replaced ---------------


def _find_merge_oracle(presentation, budget):
    sig = presentation.signature
    part = _KernelPartition(presentation, range(max(2 * sig.max_arity, 1)), budget)
    by_arity = {}
    for name, arity in sig.symbols:
        by_arity.setdefault(arity, []).append(name)
    for arity, names in sorted(by_arity.items()):
        for keep_name, drop_name in itertools.combinations(sorted(names), 2):
            for perm in itertools.permutations(range(arity)):
                if part.same(flat(drop_name, *range(arity)), flat(keep_name, *perm)):
                    return drop_name, keep_name, perm
    return None


def _reduce_oracle(presentation, budget):
    """Drop inessential coordinates, then merge one pair at a time, round after round."""
    presentation = make_constants_explicit(presentation, budget)
    translation = _identity(presentation.signature)
    current = presentation
    for _ in range(len(presentation.signature.symbols) + 1):
        moves = _essential_coordinates(current, budget)
        if moves != _identity(current.signature):
            current, translation = _rename(current, translation, moves)
        merged = False
        while True:
            found = _find_merge_oracle(current, budget)
            if found is None:
                break
            drop_name, keep_name, perm = found
            moves = _identity(current.signature)
            moves[drop_name] = (keep_name, perm)
            current, translation = _rename(current, translation, moves)
            merged = True
        if not merged:
            break
    return current, translation


@st.composite
def small_presentations(draw):
    """1-4 symbols of arity 0-3, declared in any order, and up to 4 axioms over p, q, r."""
    names = draw(st.permutations("abcd"))[: draw(st.integers(1, 4))]
    symbols = tuple((n, draw(st.integers(0, 3))) for n in names)

    def side():
        name, arity = draw(st.sampled_from(symbols))
        return flat(name, *(draw(st.sampled_from("pqr")) for _ in range(arity)))

    axioms = tuple((side(), side()) for _ in range(draw(st.integers(0, 4))))
    return Presentation(Signature(symbols), axioms)


def _outcome(reduce, presentation, budget):
    try:
        return reduce(presentation, budget)
    except SizeLimitExceeded as exc:
        return str(exc)


class TestReduceOnePass:
    @settings(max_examples=400, deadline=None)
    @given(small_presentations(), st.sampled_from((None, 10**6, 400, 120, 60, 30)))
    def test_matches_round_loop(self, presentation, budget):
        new = _outcome(reduce_presentation, presentation, budget)
        old = _outcome(_reduce_oracle, presentation, budget)
        if isinstance(old, str):
            event("budget exceeded")
        else:
            event("merged" if any(t != n for n, (t, _) in old[1].items()) else "nothing merged")
        assert new == old

    def test_one_kernel_for_all_merges(self, monkeypatch):
        import corec.presentation

        built = []

        class CountedKernel(corec.presentation._KernelPartition):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(corec.presentation, "_KernelPartition", CountedKernel)
        reduce_presentation(PADDED)
        # three in make_constants_explicit, one per arity for the drops, one for the merges
        assert len(built) == 6


class TestMakeConstantsExplicit:
    def test_synthesizes_constant(self):
        sig = Signature((("sigma", 2),))
        p = Presentation(sig, ((flat("sigma", "p", "q"), flat("sigma", "r", "s")),))
        explicit = make_constants_explicit(p)
        constants = explicit.signature.constant_symbols()
        assert constants == ("c_sigma",)
        assert kernel_equal(
            explicit, flat("sigma", 1, 2), flat("c_sigma"), [1, 2]
        )

    def test_unchanged_without_blind_symbols(self):
        assert make_constants_explicit(SEMILATTICE) == SEMILATTICE

    def test_idempotent(self):
        sig = Signature((("sigma", 2),))
        p = Presentation(sig, ((flat("sigma", "p", "q"), flat("sigma", "r", "s")),))
        once = make_constants_explicit(p)
        assert make_constants_explicit(once) == once


class TestTreeEquivBounded:
    def test_commutativity_single_application(self):
        a, b = ParamLeaf("a"), ParamLeaf("b")
        verdict = tree_equiv_bounded(COMM, op("u", a, b), op("u", b, a))
        assert verdict.is_equal

    def test_idempotence_application(self):
        a = ParamLeaf("a")
        verdict = tree_equiv_bounded(SEMILATTICE, op("u", a, a), op("s", a))
        assert verdict.is_equal

    def test_distinct_by_model(self):
        a, b = ParamLeaf("a"), ParamLeaf("b")
        verdict = tree_equiv_bounded(
            SEMILATTICE, op("u", a, b), op("s", a), models=[JOIN3]
        )
        assert verdict.is_distinct
        assert verdict.witness["model"] == 0

    def test_no_axioms_syntactic(self):
        empty = Presentation(SIG_US, ())
        a = ParamLeaf("a")
        assert tree_equiv_bounded(empty, op("s", a), op("s", a)).is_equal
        assert tree_equiv_bounded(empty, op("s", a), op("u", a, a)).is_distinct

    def test_nested_commutativity(self):
        a, b, c = ParamLeaf("a"), ParamLeaf("b"), ParamLeaf("c")
        left = op("u", op("u", a, b), c)
        right = op("u", c, op("u", b, a))
        verdict = tree_equiv_bounded(COMM, left, right)
        assert verdict.is_equal

    def test_unknown_when_unprovable_without_model(self):
        a, b = ParamLeaf("a"), ParamLeaf("b")
        verdict = tree_equiv_bounded(SEMILATTICE, op("u", a, b), op("s", a))
        assert verdict.is_unknown

    def test_constant_axiom_application(self):
        sig = Signature((("sigma", 2), ("c", 0)))
        blind = Presentation(sig, ((flat("sigma", "p", "q"), flat("c")),))
        a, b = ParamLeaf("a"), ParamLeaf("b")
        assert tree_equiv_bounded(blind, op("sigma", a, b), op("c")).is_equal
        assert tree_equiv_bounded(blind, op("sigma", a, b), op("sigma", b, a)).is_equal

    def test_arity_conflict_is_signature_mismatch(self):
        sig = Signature((("f", 2),))
        left = RationalTree(sig, (OpStep("f", (0, 1)), LeafStep("y")), 0)
        right = RationalTree(sig, (OpStep("f", (1, 0)), LeafStep("y")), 0)
        wider = Presentation(
            Signature((("f", 3),)), ((flat("f", "p", "q", "r"), flat("f", "q", "r", "p")),)
        )
        with pytest.raises(SignatureMismatch):
            tree_equiv_bounded(wider, cut(left, 2), cut(right, 2))

    def test_equal_sound_for_models(self):
        # every Equal verdict must evaluate identically in a satisfying model
        import itertools as it

        from corec.core import enumerate_flat_terms

        leaves = [ParamLeaf("a"), ParamLeaf("b")]
        pool = list(leaves)
        for l, r in it.product(leaves, repeat=2):
            pool.append(op("u", l, r))
        for l in leaves:
            pool.append(op("s", l))
        for left, right in it.combinations(pool, 2):
            verdict = tree_equiv_bounded(SEMILATTICE, left, right, budget=2000)
            if not verdict.is_equal:
                continue
            for env_values in it.product(JOIN3.carrier, repeat=2):
                env = dict(zip(["a", "b"], env_values))
                assert _fold_tree(left, env.__getitem__, JOIN3.apply) == _fold_tree(
                    right, env.__getitem__, JOIN3.apply
                )


class TestDeepTrees:
    """Truncations far deeper than Python's recursion limit."""

    DEPTH = 3000
    S_LOOP = RationalTree(SIG_US, (OpStep("s", (0,)),), 0)

    def test_equal_without_axioms(self):
        left, right = cut(self.S_LOOP, self.DEPTH), cut(self.S_LOOP, self.DEPTH)
        assert left is not right
        assert tree_equiv_bounded(Presentation(SIG_US, ()), left, right).is_equal

    def test_equal_with_axioms(self):
        left, right = cut(self.S_LOOP, self.DEPTH), cut(self.S_LOOP, self.DEPTH)
        assert tree_equiv_bounded(SEMILATTICE, left, right).is_equal

    def test_model_separates_by_parity(self):
        # s flips a bit and u is "and", so s^3000(v) = v but u(s^2999(v), s^2999(v)) = not v
        flip_and = FiniteAlgebra(
            SIG_US,
            (0, 1),
            {
                "u": {(a, b): a & b for a in (0, 1) for b in (0, 1)},
                "s": {(0,): 1, (1,): 0},
            },
        )
        assert satisfies_presentation(flip_and, COMM)
        doubled = RationalTree(SIG_US, (OpStep("u", (1, 1)), OpStep("s", (1,))), 0)
        left, right = cut(self.S_LOOP, self.DEPTH), cut(doubled, self.DEPTH)
        verdict = tree_equiv_bounded(COMM, left, right, models=[flip_and])
        assert verdict.is_distinct
        v = verdict.witness["valuation"][BOTTOM]
        assert verdict.witness["values"] == (v, 1 - v)


class TestRtreeEquivUpto:
    def test_reflexive(self):
        t = RationalTree(SIG_US, (OpStep("u", (0, 1)), LeafStep("a")), 0)
        assert rtree_equiv_upto(SEMILATTICE, t, t, 6).is_equal

    def test_empty_axioms_degenerate_to_bisim(self):
        empty = Presentation(SIG_US, ())
        t = RationalTree(SIG_US, (OpStep("u", (0, 0)),), 0)
        u = RationalTree(SIG_US, (OpStep("u", (1, 1)), OpStep("u", (0, 0))), 0)
        assert rtree_equiv_upto(empty, t, u, len(t) * len(u)).is_equal
        w = RationalTree(SIG_US, (OpStep("u", (0, 1)), LeafStep("a")), 0)
        verdict = rtree_equiv_upto(empty, t, w, 4)
        assert verdict.is_distinct
        assert verdict.witness["level"] >= 1

    def test_distinct_stays_distinct_at_larger_depth(self):
        empty = Presentation(SIG_US, ())
        t = RationalTree(SIG_US, (OpStep("u", (0, 0)),), 0)
        w = RationalTree(SIG_US, (OpStep("u", (0, 1)), LeafStep("a")), 0)
        for depth in (2, 4, 8):
            assert rtree_equiv_upto(empty, t, w, depth).is_distinct

    def test_commuted_solutions_equal(self):
        left = RationalTree(SIG_US, (OpStep("u", (0, 1)), LeafStep("a")), 0)
        right = RationalTree(SIG_US, (OpStep("u", (1, 0)), LeafStep("a")), 0)
        assert rtree_equiv_upto(COMM, left, right, 6).is_equal

    def test_arity_conflict_is_signature_mismatch(self):
        sig = Signature((("f", 2),))
        left = RationalTree(sig, (OpStep("f", (0, 1)), LeafStep("y")), 0)
        right = RationalTree(sig, (OpStep("f", (1, 0)), LeafStep("y")), 0)
        wider = Presentation(
            Signature((("f", 3),)), ((flat("f", "p", "q", "r"), flat("f", "q", "r", "p")),)
        )
        # narrower: the two distinct trees read as equal under f(u) = a()
        narrower = Presentation(Signature((("f", 1), ("a", 0))), ((flat("f", "u"), flat("a")),))
        for presentation in (wider, narrower):
            with pytest.raises(SignatureMismatch):
                rtree_equiv_upto(presentation, left, right, 4)
        # a symbol on one side only is no conflict
        assert rtree_equiv_upto(SEMILATTICE, left, left, 4).is_equal


class TestVerdict3:
    def test_constructors(self):
        assert Verdict3.equal().is_equal
        assert Verdict3.distinct("w").witness == "w"
        assert Verdict3.unknown(5).budget_used == 5

    def test_rational_verdicts_record_depth(self):
        left = RationalTree(SIG_US, (OpStep("u", (0, 1)), LeafStep("a")), 0)
        right = RationalTree(SIG_US, (OpStep("u", (1, 0)), LeafStep("a")), 0)
        assert rtree_equiv_upto(COMM, left, right, 7).depth == 7
        spine = RationalTree(SIG_US, (OpStep("u", (0, 1)), OpStep("s", (1,))), 0)
        unknown = rtree_equiv_upto(SEMILATTICE, left, spine, 3)
        assert unknown.is_unknown and unknown.depth == 3
        assert tree_equiv_bounded(COMM, cut(left, 2), cut(right, 2)).depth is None


# --- the per-level comparison that one joint saturation replaced -------------


class _RescanDag(_UnionFind):
    """Hash-consed dag whose congruence closure rescans every node until stable."""

    def __init__(self):
        super().__init__()
        self.kind, self.label, self.kids, self.memo = [], [], [], {}

    def _node(self, kind, label, kids):
        key = (kind, label, kids)
        if key not in self.memo:
            self.kind.append(kind)
            self.label.append(label)
            self.kids.append(kids)
            self.memo[key] = self.add()
        return self.memo[key]

    def intern(self, tree):
        return _fold_tree(tree, lambda n: self._node("leaf", n, ()), lambda f, k: self._node("op", f, k))

    def close_congruence(self):
        while True:
            changed = False
            table = {}
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


def _tree_params(tree):
    """Parameter names at the leaves of a finite tree."""
    return _fold_tree(tree, lambda name: {name}, lambda symbol, kids: set().union(*kids))


def _model_refutation_oracle(models, left, right, budget):
    labels = sorted(_tree_params(left) | _tree_params(right))
    checked = 0
    for index, model in enumerate(models):
        for combo in itertools.product(list(model.carrier), repeat=len(labels)):
            checked += 1
            if checked > budget:
                return None
            env = dict(zip(labels, combo))
            lv = _fold_tree(left, env.__getitem__, model.apply)
            rv = _fold_tree(right, env.__getitem__, model.apply)
            if lv != rv:
                return {"model": index, "valuation": env, "values": (lv, rv)}
    return None


def _tree_equiv_oracle(presentation, left, right, budget, models):
    witness = _model_refutation_oracle(models, left, right, budget)
    if witness is not None:
        return Verdict3.distinct(witness)
    dag = _RescanDag()
    left_id, right_id = dag.intern(left), dag.intern(right)
    if not presentation.axioms:
        if left_id == right_id:
            return Verdict3.equal()
        return Verdict3.distinct({"reason": "no axioms; trees differ syntactically"})
    dag._node("leaf", BOTTOM, ())
    directed = [d for l, r in presentation.axioms for d in ((l, r), (r, l))]
    spent = 0
    while True:
        dag.close_congruence()
        if dag.find(left_id) == dag.find(right_id):
            return Verdict3.equal()
        class_nodes = sorted({dag.find(i) for i in range(len(dag.kind))})
        progress = False
        node_count = len(dag.kind)
        for src, dst in directed:
            fresh_vars = [v for v in _axiom_variables(dst, dst) if v not in set(src.args)]
            for node in range(node_count):
                if dag.kind[node] != "op" or dag.label[node] != src.head:
                    continue
                assignment = {}
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
                    instance = dag._node("op", dst.head, tuple(env[v] for v in dst.args))
                    if dag.union(node, instance):
                        progress = True
                        spent += 1
                        if spent > budget:
                            return Verdict3.unknown(spent)
        if not progress:
            dag.close_congruence()
            if dag.find(left_id) == dag.find(right_id):
                return Verdict3.equal()
            return Verdict3.unknown(spent)


def _equiv_upto_oracle(presentation, left, right, depth, budget, models):
    unknown = None
    for level in range(1, depth + 1):
        verdict = _tree_equiv_oracle(presentation, cut(left, level), cut(right, level), budget, models)
        if verdict.is_distinct:
            return Verdict3.distinct({"level": level, "witness": verdict.witness})
        if verdict.is_unknown:
            unknown = verdict
    return unknown if unknown is not None else Verdict3.equal()


SIG_UST = Signature((("u", 2), ("s", 1), ("t", 3)))
AXIOMS_UST = (
    (flat("u", "p", "q"), flat("u", "q", "p")),
    (flat("u", "p", "p"), flat("s", "p")),
    (flat("t", "p", "q", "r"), flat("t", "q", "r", "p")),
    (flat("u", "p", "q"), flat("s", "p")),  # q on one side only
)


@st.composite
def ust_steps(draw):
    arity = {"u": 2, "s": 1, "t": 3}
    n = draw(st.integers(1, 5))
    steps = []
    for _ in range(n):
        kind = draw(st.sampled_from(["u", "s", "t", "y", "z"]))
        if kind in arity:
            steps.append(OpStep(kind, tuple(draw(st.integers(0, n - 1)) for _ in range(arity[kind]))))
        else:
            steps.append(LeafStep(kind))
    return steps


@st.composite
def ust_pairs(draw):
    """Two small rational trees over u:2 s:1 t:3; the second often an axiom-shuffled copy."""
    steps = draw(ust_steps())
    other = draw(ust_steps())
    if draw(st.booleans()):
        other = []
        for step in steps:
            if isinstance(step, OpStep) and draw(st.booleans()):
                kids = step.children
                if step.symbol == "s":
                    step = OpStep("u", kids * 2)
                else:
                    k = draw(st.integers(1, len(kids) - 1))
                    step = OpStep(step.symbol, kids[k:] + kids[:k])
            other.append(step)
    return RationalTree(SIG_UST, tuple(steps), 0), RationalTree(SIG_UST, tuple(other), 0)


@st.composite
def two_element_models(draw, presentation):
    """Up to two random algebras on {0, 1}; those that violate an axiom are dropped."""
    models = []
    for _ in range(draw(st.integers(0, 2))):
        tables = {
            name: {args: draw(st.sampled_from((0, 1))) for args in itertools.product((0, 1), repeat=a)}
            for name, a in SIG_UST.symbols
        }
        model = FiniteAlgebra(SIG_UST, (0, 1), tables)
        if satisfies_presentation(model, presentation):
            models.append(model)
    return models


class TestJointSaturation:
    @settings(max_examples=300, deadline=None)
    @given(
        ust_pairs(),
        st.lists(st.sampled_from(AXIOMS_UST), unique=True, max_size=3),
        st.integers(1, 6),
        st.sampled_from((3, 40, 10**6)),
        st.data(),
    )
    def test_matches_per_level_oracle(self, pair, axioms, depth, budget, data):
        left, right = pair
        presentation = Presentation(SIG_UST, tuple(axioms))
        models = data.draw(two_element_models(presentation))
        for level in range(1, depth + 1):  # one goal pair: byte-identical to the old loop
            cuts = cut(left, level), cut(right, level)
            assert tree_equiv_bounded(presentation, *cuts, budget, models) == _tree_equiv_oracle(
                presentation, *cuts, budget, models
            )
        old = _equiv_upto_oracle(presentation, left, right, depth, budget, models)
        new = rtree_equiv_upto(presentation, left, right, depth, budget, models)
        event(f"{old.status} -> {new.status}")
        if old.is_distinct or new.is_distinct:
            assert new == old
            return
        assert new.depth == depth
        if old.is_equal:
            assert new.is_equal or new.budget_used > budget

    def test_one_dag_per_comparison(self, monkeypatch):
        import corec.presentation

        made = []

        class CountedDag(corec.presentation._TreeDag):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(corec.presentation, "_TreeDag", CountedDag)
        left = RationalTree(SIG_US, (OpStep("u", (0, 1)), LeafStep("a")), 0)
        right = RationalTree(SIG_US, (OpStep("u", (1, 0)), LeafStep("a")), 0)
        assert rtree_equiv_upto(COMM, left, right, 20).is_equal
        assert len(made) == 1
