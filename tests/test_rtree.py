import pytest
from hypothesis import given, settings, strategies as st

from corec.core import BOTTOM, Op, ParamLeaf, Signature
from corec.errors import (
    ArityMismatch,
    HasParameters,
    MissingAssignment,
    NonUnarySignature,
    ReservedParameter,
    SignatureMismatch,
)
from corec.rtree import (
    INFINITE,
    LEAF_COUNT_CAP,
    Lasso,
    LeafStep,
    OpStep,
    RationalTree,
    bisim_equal,
    count_param_leaves,
    cut,
    cut_equal,
    from_lasso,
    graft,
    has_finite_param_leaves,
    leaf,
    minimize,
    op_apply,
    to_lasso,
)

SIG_BIN = Signature((("sigma", 2),))
SIG_A = Signature((("a", 1),))
SIG_AB = Signature((("a", 1), ("b", 1)))
SIG_MIX = Signature((("sigma", 2), ("a", 1)))


def spine():
    """The solution of {x1 = sigma(x1, x2), x2 = y}: sigma nested on the left."""
    return RationalTree(SIG_BIN, (OpStep("sigma", (0, 1)), LeafStep("y")), 0)


def a_loop(sig=SIG_A, symbol="a"):
    return RationalTree(sig, (OpStep(symbol, (0,)),), 0)


class TestValidation:
    """Construction checks the steps the root reaches and drops the rest unchecked."""

    BAD_STEPS = (
        OpStep("sigma", (0,)),  # wrong arity
        OpStep("sigma", (0, 7)),  # missing child
        OpStep("sigma", (0, -1)),  # negative child
        "not a step",
    )

    def test_bad_reachable_state_raises(self):
        for bad in self.BAD_STEPS:
            with pytest.raises((ArityMismatch, ValueError)):
                RationalTree(SIG_BIN, (OpStep("sigma", (1, 1)), bad), 0)

    def test_bad_unreachable_state_is_pruned(self):
        for bad in self.BAD_STEPS:
            t = RationalTree(SIG_BIN, (OpStep("sigma", (0, 2)), bad, LeafStep("y")), 0)
            assert t == spine()


class TestLeaf:
    def test_cut_is_leaf(self):
        t = leaf(SIG_BIN, "y")
        for k in (1, 2, 5):
            assert cut(t, k) == ParamLeaf("y")

    def test_distinct_labels_not_bisimilar(self):
        assert not bisim_equal(leaf(SIG_BIN, "z"), leaf(SIG_BIN, "y"))

    def test_single_param_leaf(self):
        assert count_param_leaves(leaf(SIG_BIN, "y")) == 1


class TestOpApply:
    def test_sharing_under_minimization(self):
        t = op_apply(SIG_BIN, "sigma", [leaf(SIG_BIN, "y"), leaf(SIG_BIN, "y")])
        assert len(t) == 2

    def test_cut_distributes(self):
        t1, t2 = spine(), leaf(SIG_BIN, "y")
        joined = op_apply(SIG_BIN, "sigma", [t1, t2])
        for k in range(4):
            assert cut(joined, k + 1) == Op("sigma", (cut(t1, k), cut(t2, k)))

    def test_unfolding_fixpoint(self):
        # sigma applied to (the spine, leaf y) unfolds the spine one step
        t = spine()
        assert bisim_equal(op_apply(SIG_BIN, "sigma", [t, leaf(SIG_BIN, "y")]), t)

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            op_apply(SIG_BIN, "sigma", [leaf(SIG_BIN, "y")])


class TestMinimize:
    def test_merges_duplicate_leaves(self):
        t = RationalTree(
            SIG_BIN, (OpStep("sigma", (1, 2)), LeafStep("y"), LeafStep("y")), 0
        )
        assert len(minimize(t)) == 2

    def test_two_state_cycle_collapses(self):
        two = RationalTree(SIG_A, (OpStep("a", (1,)), OpStep("a", (0,))), 0)
        one = minimize(two)
        assert len(one) == 1
        # oracle: both unfold identically to every finite depth
        for k in (1, 2, 4):
            assert cut(one, k) == cut(two, k)

    def test_idempotent(self):
        t = minimize(spine())
        assert minimize(t) == t
        assert len(t) == 2

    def test_preserves_bisimilarity(self):
        t = spine()
        assert bisim_equal(t, minimize(t))


class TestBisim:
    def test_reflexive(self):
        t = spine()
        assert bisim_equal(t, t)

    def test_distinct_leaves(self):
        assert not bisim_equal(leaf(SIG_BIN, "y"), leaf(SIG_BIN, "z"))

    def test_loop_vs_cycle(self):
        one = a_loop()
        two = RationalTree(SIG_A, (OpStep("a", (1,)), OpStep("a", (0,))), 0)
        # oracle: depth-k unfoldings agree for k = 1 * 2
        assert cut(one, 2) == cut(two, 2)
        assert bisim_equal(one, two)

    def test_signature_mismatch(self):
        with pytest.raises(SignatureMismatch):
            bisim_equal(leaf(SIG_BIN, "y"), leaf(SIG_A, "y"))


class TestCut:
    def test_level_zero(self):
        assert cut(spine(), 0) == ParamLeaf(BOTTOM)
        assert cut(leaf(SIG_BIN, "y"), 0) == ParamLeaf(BOTTOM)

    def test_spine_two_levels(self):
        bot = ParamLeaf(BOTTOM)
        assert cut(spine(), 2) == Op("sigma", (Op("sigma", (bot, bot)), ParamLeaf("y")))

    def test_spine_three_levels(self):
        bot = ParamLeaf(BOTTOM)
        inner = Op("sigma", (Op("sigma", (bot, bot)), ParamLeaf("y")))
        assert cut(spine(), 3) == Op("sigma", (inner, ParamLeaf("y")))

    def test_reserved_label_rejected(self):
        t = RationalTree(SIG_BIN, (LeafStep(BOTTOM),), 0)
        with pytest.raises(ReservedParameter):
            cut(t, 1)

    def test_deep_truncation(self):
        # cycles longer than Python's recursion limit allows a walk to unfold
        def marked_cycle(length, period):
            steps = tuple(
                OpStep("b" if i % period == 0 else "a", ((i + 1) % length,))
                for i in range(length)
            )
            return RationalTree(SIG_AB, steps, 0)

        t = marked_cycle(40, 40)
        unrolled = marked_cycle(80, 40)
        longer = marked_cycle(80, 80)
        bot = cut(t, 5000)
        for _ in range(5000):
            bot = bot.children[0]
        assert bot == ParamLeaf(BOTTOM)
        for u in (unrolled, longer):
            assert cut_equal(t, u, len(t) * len(u)) == bisim_equal(t, u)
        assert bisim_equal(t, unrolled) and not bisim_equal(t, longer)


class TestCountParamLeaves:
    def test_spine_is_infinite(self):
        assert count_param_leaves(spine()) == INFINITE
        assert not has_finite_param_leaves(spine())

    def test_two_occurrences_of_shared_state(self):
        t = op_apply(SIG_BIN, "sigma", [leaf(SIG_BIN, "y"), leaf(SIG_BIN, "y")])
        assert count_param_leaves(t) == 2

    def test_pure_loop(self):
        assert count_param_leaves(a_loop()) == 0
        assert has_finite_param_leaves(a_loop())

    def test_finite_tree_embedded(self):
        t = op_apply(
            SIG_BIN,
            "sigma",
            [
                op_apply(SIG_BIN, "sigma", [leaf(SIG_BIN, "y"), leaf(SIG_BIN, "z")]),
                leaf(SIG_BIN, "y"),
            ],
        )
        assert count_param_leaves(t) == 3
        assert has_finite_param_leaves(t)

    def test_saturates_at_cap(self):
        from corec.rtree import LEAF_COUNT_CAP

        # 70 stacked binary nodes, both children shared: 2^70 leaf occurrences
        depth = 70
        steps = [OpStep("sigma", (i + 1, i + 1)) for i in range(depth)]
        steps.append(LeafStep("y"))
        t = RationalTree(SIG_BIN, tuple(steps), 0)
        assert count_param_leaves(t) == LEAF_COUNT_CAP
        assert has_finite_param_leaves(t)

    def test_matches_cut_counts(self):
        # oracle: non-bottom leaves of the depth-k cut stabilize exactly at
        # the count for finite counts and grow strictly for infinite ones
        def leaves_in(tree):
            if isinstance(tree, ParamLeaf):
                return 0 if tree.name == BOTTOM else 1
            return sum(leaves_in(c) for c in tree.children)

        finite = op_apply(SIG_BIN, "sigma", [leaf(SIG_BIN, "y"), leaf(SIG_BIN, "y")])
        bound = 2 * len(finite)
        assert leaves_in(cut(finite, bound)) == count_param_leaves(finite)

        infinite = spine()
        bound = 2 * len(infinite)
        seq = [leaves_in(cut(infinite, k)) for k in range(1, bound + 1)]
        assert all(b > a for a, b in zip(seq, seq[1:]))
        assert count_param_leaves(infinite) == INFINITE


class TestGraft:
    def test_unit_law(self):
        target = spine()
        assert graft(leaf(SIG_BIN, "y"), {"y": target}) == minimize(target)

    def test_identity_assignment(self):
        t = spine()
        assert bisim_equal(graft(t, {"y": leaf(SIG_BIN, "y")}), t)

    def test_spine_grafted_with_loop(self):
        t = RationalTree(SIG_MIX, (OpStep("sigma", (0, 1)), LeafStep("y")), 0)
        plug = a_loop(SIG_MIX)
        grafted = graft(t, {"y": plug})
        assert count_param_leaves(grafted) == 0
        # oracle: hand-substituted system, compared at depth 5
        expected = RationalTree(
            SIG_MIX, (OpStep("sigma", (0, 1)), OpStep("a", (1,))), 0
        )
        assert cut(grafted, 5) == cut(expected, 5)
        assert bisim_equal(grafted, expected)

    def test_missing_assignment(self):
        with pytest.raises(MissingAssignment):
            graft(spine(), {})


class TestLasso:
    def test_round_trip_single_letter(self):
        lasso = Lasso((), ("a",))
        t = from_lasso(lasso, SIG_AB)
        assert len(t) == 1
        assert to_lasso(t) == lasso

    def test_two_letter_cycle(self):
        lasso = Lasso((), ("a", "b"))
        t = from_lasso(lasso, SIG_AB)
        # oracle: six-step unfolding spells a b a b a b
        expected = ParamLeaf(BOTTOM)
        for symbol in reversed(["a", "b", "a", "b", "a", "b"]):
            expected = Op(symbol, (expected,))
        assert cut(t, 6) == expected
        assert to_lasso(t) == lasso

    def test_normal_form(self):
        assert Lasso(("a",), ("a",)) == Lasso((), ("a",))
        assert Lasso((), ("a", "b", "a", "b")) == Lasso((), ("a", "b"))
        assert Lasso(("a", "b"), ("b",)).prefix == ("a",)

    def test_period_nonempty(self):
        with pytest.raises(ValueError):
            Lasso((), ())

    def test_from_lasso_needs_unary(self):
        with pytest.raises(NonUnarySignature):
            from_lasso(Lasso((), ("sigma",)), SIG_BIN)

    def test_to_lasso_rejects_parameters(self):
        with pytest.raises(HasParameters):
            to_lasso(leaf(SIG_A, "y"))

    def test_unfold(self):
        assert Lasso(("a",), ("b", "c")).unfold(6) == ("a", "b", "c", "b", "c", "b")

    def test_to_lasso_of_unminimized_chain(self):
        # a four-state chain spelling abab into a two-state cycle
        steps = (
            OpStep("a", (1,)),
            OpStep("b", (2,)),
            OpStep("a", (3,)),
            OpStep("b", (2,)),
        )
        t = RationalTree(SIG_AB, steps, 0)
        assert to_lasso(t) == Lasso((), ("a", "b"))


class TestDeepLeafCount:
    N = 3000

    def test_chain(self):
        steps = [OpStep("a", (i + 1,)) for i in range(self.N - 1)] + [LeafStep("y")]
        assert count_param_leaves(RationalTree(SIG_MIX, tuple(steps), 0)) == 1

    def test_doubling_dag_saturates(self):
        steps = [OpStep("sigma", (i + 1, i + 1)) for i in range(self.N - 1)] + [LeafStep("y")]
        assert count_param_leaves(RationalTree(SIG_MIX, tuple(steps), 0)) == LEAF_COUNT_CAP

    def test_long_cycle_with_leaf(self):
        steps = [OpStep("a", (i + 1,)) for i in range(self.N - 1)]
        steps += [OpStep("sigma", (0, self.N)), LeafStep("y")]
        assert count_param_leaves(RationalTree(SIG_MIX, tuple(steps), 0)) == INFINITE


@st.composite
def rational_trees(draw):
    sig = SIG_MIX
    n = draw(st.integers(min_value=1, max_value=6))
    steps = []
    for _ in range(n):
        kind = draw(st.sampled_from(["leaf", "sigma", "a"]))
        if kind == "leaf":
            steps.append(LeafStep(draw(st.sampled_from(["y", "z"]))))
        elif kind == "a":
            steps.append(OpStep("a", (draw(st.integers(0, n - 1)),)))
        else:
            steps.append(
                OpStep(
                    "sigma",
                    (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))),
                )
            )
    return RationalTree(sig, tuple(steps), 0)


class TestTreeProperties:
    @settings(max_examples=60, deadline=None)
    @given(rational_trees(), rational_trees())
    def test_bisim_iff_cut_equality(self, t, u):
        k = len(t) * len(u)
        agree = cut_equal(t, u, k)
        assert bisim_equal(t, u) == agree
        if agree:
            assert cut_equal(t, u, k + 5)

    @settings(max_examples=60, deadline=None)
    @given(rational_trees())
    def test_minimize_contract(self, t):
        m = minimize(t)
        assert bisim_equal(t, m)
        assert minimize(m) == m
        assert len(m) <= len(t)

    @settings(max_examples=60, deadline=None)
    @given(rational_trees(), rational_trees())
    def test_minimize_is_canonical(self, t, u):
        # bisimilar systems minimize to literally the same value
        assert bisim_equal(t, u) == (minimize(t) == minimize(u))

    @settings(max_examples=60, deadline=None)
    @given(rational_trees())
    def test_leaf_count_agrees_with_cut_counts(self, t):
        # occurrence count of non-bottom leaves in the depth-k truncation,
        # computed by dynamic programming over (state, remaining depth)
        def occurrences(tree, k):
            memo = {}

            def go(s, d):
                if (s, d) in memo:
                    return memo[(s, d)]
                st = tree.steps[s]
                if isinstance(st, LeafStep):
                    out = 1
                elif d == 0:
                    out = 0
                else:
                    out = sum(go(c, d - 1) for c in st.children)
                memo[(s, d)] = out
                return out

            return go(tree.root, k)

        n = len(t)
        count = count_param_leaves(t)
        if count == INFINITE:
            assert occurrences(t, 3 * n) > occurrences(t, 2 * n)
        else:
            assert occurrences(t, 2 * n) == count
            assert occurrences(t, 2 * n + 1) == count

    @settings(max_examples=40, deadline=None)
    @given(rational_trees())
    def test_graft_associativity(self, t):
        f = {"y": a_loop(SIG_MIX), "z": leaf(SIG_MIX, "y")}
        g = {"y": op_apply(SIG_MIX, "a", [leaf(SIG_MIX, "z")]), "z": leaf(SIG_MIX, "z")}
        left = graft(graft(t, f), g)
        right = graft(t, {p: graft(f[p], g) for p in f})
        assert bisim_equal(left, right)
