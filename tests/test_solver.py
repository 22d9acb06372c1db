import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from corec.core import BOTTOM, EquationSystem, FlatTerm, Op, Param, ParamLeaf, Signature, Var
from corec.errors import (
    InvalidAnchor,
    NonUnarySignature,
    ParameterMismatch,
    SignatureMismatch,
    UndeclaredName,
    UnsupportedSystem,
)
from corec.rtree import (
    Lasso,
    LeafStep,
    OpStep,
    RationalTree,
    bisim_equal,
    count_param_leaves,
    cut,
    from_lasso,
    graft,
    leaf,
    minimize,
    op_apply,
)
from corec.solver import (
    FinitePart,
    InfinitePart,
    anchors,
    classify,
    compose_systems,
    fold_constants,
    is_tree_solution,
    solve,
    solve_anchored,
    solve_at,
    solve_decomposed,
    tree_to_system,
    _unary_view,
)
from corec.checker import FiniteAlgebra

SIG_BIN = Signature((("sigma", 2),))
SIG_A = Signature((("a", 1),))
SIG_AB = Signature((("a", 1), ("b", 1)))


def system(sig, rhs, params=()):
    return EquationSystem(sig, tuple(rhs), tuple(params), rhs)


def spine_system():
    return system(
        SIG_BIN,
        {
            "x1": FlatTerm("sigma", (Var("x1"), Var("x2"))),
            "x2": Param("y"),
        },
        params=("y",),
    )


IDENTITY_ACTION = FiniteAlgebra(SIG_A, (0, 1), {"a": {(0,): 0, (1,): 1}})
NEGATION_ACTION = FiniteAlgebra(SIG_A, (0, 1), {"a": {(0,): 1, (1,): 0}})


class TestSolve:
    def test_spine_example(self):
        sol = solve(spine_system())
        expected = RationalTree(SIG_BIN, (OpStep("sigma", (0, 1)), LeafStep("y")), 0)
        assert bisim_equal(sol["x1"], expected)
        assert bisim_equal(sol["x2"], leaf(SIG_BIN, "y"))

    def test_parameter_equation(self):
        sol = solve(system(SIG_A, {"x": Param("y")}, params=("y",)))
        assert sol["x"] == leaf(SIG_A, "y")

    def test_alternating_stream(self):
        sol = solve(
            system(
                SIG_AB,
                {
                    "x1": FlatTerm("a", (Var("x2"),)),
                    "x2": FlatTerm("b", (Var("x1"),)),
                },
            )
        )
        # oracle: unfold a, b, a, b, ... by hand for eight steps
        expected = ParamLeaf(BOTTOM)
        for symbol in reversed(["a", "b"] * 4):
            expected = Op(symbol, (expected,))
        assert cut(sol["x1"], 8) == expected

    def test_solution_satisfies_fixpoint(self):
        e = spine_system()
        assert is_tree_solution(e, solve(e))

    def test_perturbed_solution_fails_fixpoint(self):
        e = spine_system()
        sol = dict(solve(e))
        sol["x2"] = RationalTree(SIG_BIN, (OpStep("sigma", (0, 0)),), 0)
        assert not is_tree_solution(e, sol)


class TestSolutionUniqueness:
    def test_random_systems_satisfy_and_perturbations_fail(self):
        sig = Signature((("sigma", 2), ("a", 1)))
        rng = random.Random(99)
        pool_params = ["y", "z"]
        for _ in range(100):
            names = [f"x{i}" for i in range(rng.randint(1, 4))]

            def atom():
                pick = rng.choice(names + pool_params)
                return Var(pick) if pick in names else Param(pick)

            rhs = {}
            for x in names:
                roll = rng.random()
                if roll < 0.2:
                    rhs[x] = Param(rng.choice(pool_params))
                elif roll < 0.6:
                    rhs[x] = FlatTerm("sigma", (atom(), atom()))
                else:
                    rhs[x] = FlatTerm("a", (atom(),))
            e = EquationSystem(sig, tuple(names), tuple(pool_params), rhs)
            sol = solve(e)
            assert is_tree_solution(e, sol)
            perturbed = dict(sol)
            victim = rng.choice(names)
            replacement = RationalTree(sig, (OpStep("a", (0,)),), 0)
            if bisim_equal(replacement, sol[victim]):
                replacement = leaf(sig, "z")
            if bisim_equal(replacement, sol[victim]):
                continue
            perturbed[victim] = replacement
            assert not is_tree_solution(e, perturbed)


class TestClassify:
    def test_two_layers(self):
        e = system(
            SIG_A,
            {"x1": FlatTerm("a", (Var("x2"),)), "x2": Param("y")},
            params=("y",),
        )
        # oracle: the successor chain x1 -> x2 terminates in one step
        cls = classify(e)
        assert cls.layers == (frozenset({"x2"}), frozenset({"x1"}))
        assert cls.infinite_part == frozenset()

    def test_self_loop(self):
        e = system(SIG_A, {"x": FlatTerm("a", (Var("x"),))})
        cls = classify(e)
        assert cls.layers == ()
        assert cls.infinite_part == {"x"}

    def test_absorbed_chain(self):
        e = system(
            SIG_AB,
            {
                "x1": FlatTerm("a", (Var("x2"),)),
                "x2": FlatTerm("b", (Var("x2"),)),
            },
        )
        cls = classify(e)
        assert cls.layers == ()
        assert cls.infinite_part == {"x1", "x2"}

    def test_needs_unary(self):
        with pytest.raises(NonUnarySignature):
            classify(spine_system())

    def test_rejects_parameter_atoms(self):
        e = system(
            SIG_A, {"x": FlatTerm("a", (Param("y"),))}, params=("y",)
        )
        with pytest.raises(UnsupportedSystem):
            classify(e)


class TestSolveDecomposed:
    def test_layered_words(self):
        e = system(
            SIG_A,
            {"x1": FlatTerm("a", (Var("x2"),)), "x2": Param("y")},
            params=("y",),
        )
        dec = solve_decomposed(e)
        assert dec["x1"] == FinitePart(("a",), "y")
        assert dec["x2"] == FinitePart((), "y")
        # oracle: agree with the generic solver at depth 4
        sol = solve(e)
        for x in e.variables:
            assert cut(dec[x].to_tree(SIG_A), 4) == cut(sol[x], 4)

    def test_self_loop_stream(self):
        e = system(SIG_A, {"x": FlatTerm("a", (Var("x"),))})
        assert solve_decomposed(e)["x"] == InfinitePart(Lasso((), ("a",)))

    def test_identity_functor_length_encoding(self):
        star = Signature((("step", 1),))
        e = system(
            star,
            {"x1": FlatTerm("step", (Var("x2"),)), "x2": Param("y")},
            params=("y",),
        )
        dec = solve_decomposed(e)
        # oracle: chain length from x1 to the parameter is 1
        assert isinstance(dec["x1"], FinitePart)
        assert len(dec["x1"].word) == 1

    def test_coherence_with_generic_solver(self):
        rng = random.Random(7)
        for _ in range(50):
            letters = ["a", "b", "c"][: rng.randint(1, 3)]
            sig = Signature(tuple((w, 1) for w in letters))
            n = rng.randint(1, 8)
            names = [f"x{i}" for i in range(n)]
            rhs = {}
            for x in names:
                if rng.random() < 0.3:
                    rhs[x] = Param("y")
                else:
                    rhs[x] = FlatTerm(
                        rng.choice(letters), (Var(rng.choice(names)),)
                    )
            e = EquationSystem(sig, tuple(names), ("y",), rhs)
            sol = solve(e)
            dec = solve_decomposed(e)
            for x in names:
                assert bisim_equal(dec[x].to_tree(sig), sol[x])
                n_leaves = count_param_leaves(sol[x])
                if isinstance(dec[x], FinitePart):
                    assert n_leaves == 1
                else:
                    assert n_leaves == 0


class TestFoldConstants:
    def test_folds_constant_rhs(self):
        sig = Signature((("a", 1), ("nil", 0)))
        e = system(
            sig,
            {"x1": FlatTerm("a", (Var("x2"),)), "x2": FlatTerm("nil", ())},
        )
        folded, relabel = fold_constants(e)
        assert folded.signature.all_unary
        assert relabel == {"~nil": "nil"}
        r = folded.rhs_of("x2")
        assert isinstance(r, Param) and r.name == "~nil"
        cls = classify(folded)
        assert cls.layers == (frozenset({"x2"}), frozenset({"x1"}))

    def test_no_constants_no_change(self):
        e = system(SIG_A, {"x": FlatTerm("a", (Var("x"),))})
        folded, relabel = fold_constants(e)
        assert folded is e and relabel == {}

    def test_rejects_wide_symbols(self):
        with pytest.raises(NonUnarySignature):
            fold_constants(spine_system())


class TestComposeSystems:
    def test_unit_chain(self):
        e = system(SIG_A, {"x": Param("y")}, params=("y",))
        f = system(SIG_A, {"y": Param("z")}, params=("z",))
        composed = compose_systems(e, f)
        assert set(composed.variables) == {"x", "y"}
        assert composed.parameters == ("z",)
        sol = solve(composed)
        grafted = graft(solve(e)["x"], {"y": solve(f)["y"]})
        assert bisim_equal(sol["x"], grafted)

    def test_spine_closed_by_composition(self):
        e = spine_system()
        f = system(
            SIG_BIN, {"y": FlatTerm("sigma", (Var("y"), Var("y")))}
        )
        composed = compose_systems(e, f)
        assert composed.parameters == ()
        sol = solve(composed)
        assert count_param_leaves(sol["x1"]) == 0
        # oracle: grafting the separately solved pieces, compared at depth 6
        grafted = graft(solve(e)["x1"], {"y": solve(f)["y"]})
        assert cut(sol["x1"], 6) == cut(grafted, 6)

    def test_parameter_mismatch(self):
        e = system(SIG_A, {"x": Param("y")}, params=("y",))
        f = system(SIG_A, {"w": Param("z")}, params=("z",))
        with pytest.raises(ParameterMismatch):
            compose_systems(e, f)

    def test_parameter_atom_retagged(self):
        e = system(
            SIG_BIN,
            {"x": FlatTerm("sigma", (Var("x"), Param("y")))},
            params=("y",),
        )
        f = system(SIG_BIN, {"y": FlatTerm("sigma", (Var("y"), Var("y")))})
        composed = compose_systems(e, f)
        assert composed.rhs_of("x") == FlatTerm("sigma", (Var("x"), Var("y")))
        sol = solve(composed)
        grafted = graft(solve(e)["x"], {"y": solve(f)["y"]})
        assert bisim_equal(sol["x"], grafted)

    def test_compositionality_random(self):
        rng = random.Random(11)
        for _ in range(40):
            xs = [f"x{i}" for i in range(rng.randint(1, 3))]
            ys = [f"y{i}" for i in range(rng.randint(1, 2))]
            zs = ["z0"]
            e_rhs = {}
            for x in xs:
                if rng.random() < 0.4:
                    e_rhs[x] = Param(rng.choice(ys))
                else:
                    e_rhs[x] = FlatTerm("a", (Var(rng.choice(xs)),))
            f_rhs = {}
            for y in ys:
                if rng.random() < 0.4:
                    f_rhs[y] = Param("z0")
                else:
                    f_rhs[y] = FlatTerm("a", (Var(rng.choice(ys)),))
            e = EquationSystem(SIG_A, tuple(xs), tuple(ys), e_rhs)
            f = EquationSystem(SIG_A, tuple(ys), tuple(zs), f_rhs)
            composed_sol = solve(compose_systems(e, f))
            e_sol, f_sol = solve(e), solve(f)
            for x in xs:
                grafted = graft(e_sol[x], {y: f_sol[y] for y in ys})
                assert bisim_equal(composed_sol[x], grafted)


class TestAnchors:
    def test_identity_action_two_anchors(self):
        e = system(SIG_A, {"x": FlatTerm("a", (Var("x"),))})
        # oracle: brute force over carrier^{x}; both candidates satisfy s = a(s)
        found = anchors(e, IDENTITY_ACTION)
        assert found == [{"x": 0}, {"x": 1}]

    def test_negation_action_no_anchor(self):
        e = system(SIG_A, {"x": FlatTerm("a", (Var("x"),))})
        assert anchors(e, NEGATION_ACTION) == []

    def test_empty_infinite_part(self):
        e = system(SIG_A, {"x": Param("p")}, params=("p",))
        assert anchors(e, IDENTITY_ACTION) == [{}]


class TestSolveAnchored:
    def test_single_fold_step(self):
        e = system(
            SIG_A,
            {"x1": FlatTerm("a", (Var("x2"),)), "x2": Param("p")},
            params=("p",),
        )
        values = solve_anchored(e, NEGATION_ACTION, {}, {"p": 0})
        assert values == {"x2": 0, "x1": 1}

    def test_anchored_loop(self):
        e = system(SIG_A, {"x": FlatTerm("a", (Var("x"),))})
        values = solve_anchored(e, IDENTITY_ACTION, {"x": 0}, {})
        assert values == {"x": 0}

    def test_invalid_anchor(self):
        e = system(SIG_A, {"x": FlatTerm("a", (Var("x"),))})
        with pytest.raises(InvalidAnchor):
            solve_anchored(e, NEGATION_ACTION, {"x": 0}, {})

    def test_result_solves_the_equations(self):
        e = system(
            SIG_AB,
            {
                "x1": FlatTerm("a", (Var("x2"),)),
                "x2": FlatTerm("b", (Var("x2"),)),
                "x3": Param("p"),
            },
            params=("p",),
        )
        algebra = FiniteAlgebra(
            SIG_AB,
            (0, 1),
            {"a": {(0,): 1, (1,): 0}, "b": {(0,): 0, (1,): 1}},
        )
        for anchor in anchors(e, algebra):
            values = solve_anchored(e, algebra, anchor, {"p": 1})
            for x in e.variables:
                r = e.rhs_of(x)
                if isinstance(r, Param):
                    assert values[x] == 1
                else:
                    assert values[x] == algebra.apply(r.head, (values[r.args[0].name],))


class TestFunctoriality:
    def test_random_system_morphisms(self):
        rng = random.Random(23)
        for _ in range(60):
            m = rng.randint(1, 4)
            targets = [f"t{i}" for i in range(m)]
            t_rhs = {}
            for t in targets:
                if rng.random() < 0.3:
                    t_rhs[t] = Param("y")
                else:
                    t_rhs[t] = FlatTerm("a", (Var(rng.choice(targets)),))
            target_system = EquationSystem(SIG_A, tuple(targets), ("y",), t_rhs)
            n = rng.randint(m, 5)
            sources = [f"s{i}" for i in range(n)]
            h = {}
            for i, s in enumerate(sources):
                h[s] = targets[i] if i < m else rng.choice(targets)
            fibers = {t: [s for s in sources if h[s] == t] for t in targets}
            s_rhs = {}
            for s in sources:
                r = t_rhs[h[s]]
                if isinstance(r, Param):
                    s_rhs[s] = r
                else:
                    s_rhs[s] = FlatTerm(
                        r.head, (Var(rng.choice(fibers[r.args[0].name])),)
                    )
            source_system = EquationSystem(SIG_A, tuple(sources), ("y",), s_rhs)
            source_sol = solve(source_system)
            target_sol = solve(target_system)
            for s in sources:
                assert bisim_equal(source_sol[s], target_sol[h[s]])


class TestTreeToSystem:
    def test_round_trip(self):
        t = RationalTree(SIG_BIN, (OpStep("sigma", (0, 1)), LeafStep("y")), 0)
        e, root = tree_to_system(t)
        assert bisim_equal(solve(e)[root], t)

    def test_prefix_avoids_leaf_names(self):
        t = RationalTree(SIG_A, (OpStep("a", (1,)), LeafStep("s0")), 0)
        e, root = tree_to_system(t)
        assert root not in t.params()
        assert bisim_equal(solve(e)[root], t)


def _classify_rescan(system):
    """Layering by rescanning the unplaced variables once per layer: oracle for classify."""
    view = _unary_view(system)
    remaining = set(system.variables)
    current = frozenset(x for x in remaining if isinstance(view[x], str))
    layers = []
    while current:
        layers.append(current)
        remaining -= current
        current = frozenset(x for x in remaining if view[x][1] in layers[-1])
    return tuple(layers), frozenset(remaining)


@st.composite
def unary_systems(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    names = [f"x{i}" for i in range(n)]
    rhs = {}
    for x in names:
        if draw(st.booleans()):
            rhs[x] = FlatTerm(draw(st.sampled_from(["a", "b"])), (Var(draw(st.sampled_from(names))),))
        else:
            rhs[x] = Param(draw(st.sampled_from(["p", "q"])))
    return EquationSystem(SIG_AB, tuple(names), ("p", "q"), rhs)


def chain_system(n, cycle=False):
    """x0 = a(x1), ..., with x(n-1) = p, or = a(x0) when cycle is set."""
    rhs = {f"x{i}": FlatTerm("a", (Var(f"x{i + 1}"),)) for i in range(n - 1)}
    rhs[f"x{n - 1}"] = FlatTerm("a", (Var("x0"),)) if cycle else Param("p")
    return EquationSystem(SIG_A, tuple(rhs), () if cycle else ("p",), rhs)


class TestClassifyOracle:
    @settings(max_examples=300, deadline=None)
    @given(unary_systems())
    def test_matches_rescan_oracle(self, e):
        c = classify(e)
        assert (c.layers, c.infinite_part) == _classify_rescan(e)


class TestDeepUnary:
    N = 3000

    def test_classify_chain(self):
        c = classify(chain_system(self.N))
        assert [sorted(layer) for layer in c.layers] == [[f"x{i}"] for i in reversed(range(self.N))]
        assert c.infinite_part == frozenset()

    def test_classify_cycle(self):
        c = classify(chain_system(self.N, cycle=True))
        assert c.layers == ()
        assert len(c.infinite_part) == self.N

    def test_solve_anchored_chain(self):
        e = chain_system(self.N)
        values = solve_anchored(e, NEGATION_ACTION, {}, {"p": 0})
        assert list(values) == list(e.variables)
        assert all(values[f"x{i}"] == (self.N - 1 - i) % 2 for i in range(self.N))


SIG_K = Signature((("f", 2), ("g", 1), ("h", 3), ("c", 0)))


def _system_steps(system):
    """Unrefined states of the system: variables first, then one leaf per parameter atom."""
    var_state = {x: i for i, x in enumerate(system.variables)}
    steps = [None] * len(system.variables)
    leaf_state = {}
    for x in system.variables:
        r = system.rhs_of(x)
        if isinstance(r, Param):
            steps[var_state[x]] = LeafStep(r.name)
            continue
        children = []
        for a in r.args:
            if isinstance(a, Var):
                children.append(var_state[a.name])
            else:
                if a.name not in leaf_state:
                    leaf_state[a.name] = len(steps)
                    steps.append(LeafStep(a.name))
                children.append(leaf_state[a.name])
        steps[var_state[x]] = OpStep(r.head, tuple(children))
    return tuple(steps), var_state


def _solve_per_variable(system):
    """Per-variable minimize of the whole system: oracle for solve's one refinement."""
    steps, var_state = _system_steps(system)
    return {x: minimize(RationalTree(system.signature, steps, i)) for x, i in var_state.items()}


def _is_tree_solution_rebuild(system, assignment):
    """Each right-hand side rebuilt by op_apply and compared by bisim_equal: oracle."""
    sig = system.signature
    if any(x not in assignment for x in system.variables):
        return False
    for x in system.variables:
        r = system.rhs_of(x)
        if isinstance(r, Param):
            expected = leaf(sig, r.name)
        else:
            children = [
                assignment[a.name] if isinstance(a, Var) else leaf(sig, a.name) for a in r.args
            ]
            expected = op_apply(sig, r.head, children)
        if not bisim_equal(assignment[x], expected):
            return False
    return True


@st.composite
def kary_systems(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    names = [f"x{i}" for i in range(n)]
    atoms = st.sampled_from(names + ["p", "q"])
    rhs = {}
    for x in names:
        symbol = draw(st.sampled_from(["f", "g", "h", "c", "p", "q"]))
        if symbol in ("p", "q"):
            rhs[x] = Param(symbol)
        else:
            arity = SIG_K.arity(symbol)
            args = draw(st.lists(atoms, min_size=arity, max_size=arity))
            rhs[x] = FlatTerm(symbol, tuple(Var(a) if a in names else Param(a) for a in args))
    return EquationSystem(SIG_K, tuple(names), ("p", "q"), rhs)


@st.composite
def small_trees(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    steps = []
    for _ in range(n):
        symbol = draw(st.sampled_from(["f", "g", "c", "p"]))
        if symbol == "p":
            steps.append(LeafStep("p"))
        else:
            arity = SIG_K.arity(symbol)
            kids = draw(st.lists(st.integers(0, n - 1), min_size=arity, max_size=arity))
            steps.append(OpStep(symbol, tuple(kids)))
    return RationalTree(SIG_K, tuple(steps), 0)


class TestSolveOracle:
    @settings(max_examples=300, deadline=None)
    @given(kary_systems())
    def test_matches_per_variable_minimize(self, e):
        sol = solve(e)
        assert list(sol) == list(e.variables)
        assert sol == _solve_per_variable(e)

    @settings(max_examples=300, deadline=None)
    @given(kary_systems())
    def test_is_tree_solution_on_true_solutions(self, e):
        sol = solve(e)
        assert is_tree_solution(e, sol) and _is_tree_solution_rebuild(e, sol)
        # the unminimized system is a solution as well
        steps, var_state = _system_steps(e)
        raw = {x: RationalTree(SIG_K, steps, i) for x, i in var_state.items()}
        assert is_tree_solution(e, raw) and _is_tree_solution_rebuild(e, raw)

    @settings(max_examples=300, deadline=None)
    @given(kary_systems(), st.data())
    def test_is_tree_solution_on_perturbed_assignments(self, e, data):
        assignment = dict(solve(e))
        for x in data.draw(st.lists(st.sampled_from(e.variables), min_size=1, max_size=3)):
            if data.draw(st.booleans()):
                assignment[x] = assignment[data.draw(st.sampled_from(e.variables))]
            else:
                assignment[x] = data.draw(small_trees())
        assert is_tree_solution(e, assignment) == _is_tree_solution_rebuild(e, assignment)

    @settings(max_examples=300, deadline=None)
    @given(kary_systems())
    def test_solve_at_matches_solve(self, e):
        sol = solve(e)
        assert all(solve_at(e, x) == sol[x] for x in e.variables)

    def test_solve_at_unknown_variable(self):
        with pytest.raises(UndeclaredName):
            solve_at(spine_system(), "nope")

    def test_missing_variable_and_foreign_signature(self):
        e = spine_system()
        sol = solve(e)
        assert not is_tree_solution(e, {"x1": sol["x1"]})
        with pytest.raises(SignatureMismatch):
            is_tree_solution(e, {**sol, "x2": leaf(SIG_A, "y")})


class TestRefineOnce:
    @pytest.fixture
    def refinements(self, monkeypatch):
        import corec.rtree
        import corec.solver

        calls = []
        original = corec.rtree._refine

        def counted(steps):
            calls.append(len(steps))
            return original(steps)

        monkeypatch.setattr(corec.rtree, "_refine", counted)
        monkeypatch.setattr(corec.solver, "_refine", counted, raising=False)
        return calls

    def test_solve_refines_once(self, refinements):
        e = chain_system(50)
        solve(e)
        assert len(refinements) == 1

    def test_is_tree_solution_refines_once(self, refinements):
        e = chain_system(50)
        sol = solve(e)
        refinements.clear()
        assert is_tree_solution(e, sol)
        assert len(refinements) == 1


class TestManySmallTrees:
    def test_solve_validates_only_reachable_states(self):
        # x_i = sigma(x_i, p_i): each tree has 2 states of a 4000-state system;
        # validating every state for every tree took seconds
        n = 2000
        xs = tuple(f"x{i}" for i in range(n))
        ps = tuple(f"p{i}" for i in range(n))
        rhs = {x: FlatTerm("sigma", (Var(x), Param(p))) for x, p in zip(xs, ps)}
        started = time.perf_counter()
        sol = solve(EquationSystem(SIG_BIN, xs, ps, rhs))
        assert time.perf_counter() - started < 1.0
        assert sol["x7"] == RationalTree(SIG_BIN, (OpStep("sigma", (0, 1)), LeafStep("p7")), 0)


class TestMinimalAsBuilt:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(["a", "b"]), max_size=8),
        st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=8),
    )
    def test_from_lasso_and_finite_word(self, prefix, period):
        t = from_lasso(Lasso(tuple(prefix), tuple(period)), SIG_AB)
        assert minimize(t) == t
        w = FinitePart(tuple(prefix + period), "y").to_tree(SIG_AB)
        assert minimize(w) == w
