import pytest

from corec.core import BOTTOM, ParamLeaf, Signature, flat, op
from corec.errors import SignatureMismatch, SizeLimitExceeded
from corec.presentation import (
    Presentation,
    Verdict3,
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

    def test_probe_too_small(self):
        with pytest.raises(ValueError):
            is_reduced(SEMILATTICE, probe_size=1)

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

    def test_equal_sound_for_models(self):
        # every Equal verdict must evaluate identically in a satisfying model
        import itertools as it

        from corec.core import enumerate_flat_terms
        from corec.presentation import _eval_tree_in_model

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
                assert _eval_tree_in_model(JOIN3, left, env) == _eval_tree_in_model(
                    JOIN3, right, env
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
