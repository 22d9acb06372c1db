import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from corec.core import EquationSystem, FlatTerm, Param, Signature, Var, flat
from corec.errors import (
    NoLargeAritySymbol,
    SignatureMismatch,
    SizeLimitExceeded,
    UndeclaredName,
)
from corec.checker import (
    CheckVerdict,
    FiniteAlgebra,
    anchor_correspondence,
    check_rewrite_invariance,
    count_solutions,
    find_presentation_violation,
    is_cia,
    is_corecursive,
    rewrite_system,
    satisfies_presentation,
    unary_algebra,
    witness_non_cia,
)
from corec.presentation import Presentation
from corec.rtree import INFINITE, LeafStep, OpStep, RationalTree, bisim_equal

SIG_A = Signature((("a", 1),))
SIG_AB = Signature((("a", 1), ("b", 1)))
SIG_US = Signature((("u", 2), ("s", 1)))
SIG_BIN = Signature((("sigma", 2),))

IDENTITY_ACTION = unary_algebra(SIG_A, (0, 1), {"a": {0: 0, 1: 1}})
NEGATION_ACTION = unary_algebra(SIG_A, (0, 1), {"a": {0: 1, 1: 0}})

SEMILATTICE_AXIOMS = Presentation(
    SIG_US,
    (
        (flat("u", "p", "q"), flat("u", "q", "p")),
        (flat("u", "p", "p"), flat("s", "p")),
    ),
)

JOIN2 = FiniteAlgebra(
    SIG_US,
    (0, 1),
    {
        "u": {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1},
        "s": {(0,): 0, (1,): 1},
    },
)

NONCOMMUTATIVE = FiniteAlgebra(
    SIG_US,
    (0, 1),
    {
        "u": {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 1},  # projection, not commutative
        "s": {(0,): 0, (1,): 1},
    },
)


def system(sig, rhs, params=()):
    return EquationSystem(sig, tuple(rhs), tuple(params), rhs)


class TestSatisfiesPresentation:
    def test_join_semilattice(self):
        assert satisfies_presentation(JOIN2, SEMILATTICE_AXIOMS)

    def test_violation_with_witness(self):
        assert not satisfies_presentation(NONCOMMUTATIVE, SEMILATTICE_AXIOMS)
        axiom, env = find_presentation_violation(NONCOMMUTATIVE, SEMILATTICE_AXIOMS)
        left, right = axiom
        lv = NONCOMMUTATIVE.apply(left.head, tuple(env[a] for a in left.args))
        rv = NONCOMMUTATIVE.apply(right.head, tuple(env[a] for a in right.args))
        assert lv != rv

    def test_empty_axiom_set(self):
        assert satisfies_presentation(JOIN2, Presentation(SIG_US, ()))

    def test_signature_mismatch(self):
        with pytest.raises(SignatureMismatch):
            satisfies_presentation(IDENTITY_ACTION, SEMILATTICE_AXIOMS)


class TestCountSolutions:
    def test_identity_action_loop(self):
        e = system(SIG_A, {"x": FlatTerm("a", (Var("x"),))})
        count, sols = count_solutions(IDENTITY_ACTION, e)
        assert count == 2
        assert {s["x"] for s in sols} == {0, 1}

    def test_negation_has_no_fixed_point(self):
        e = system(SIG_A, {"x": FlatTerm("a", (Var("x"),))})
        count, _ = count_solutions(NEGATION_ACTION, e)
        assert count == 0

    def test_parameter_equation(self):
        e = system(SIG_A, {"x": Param("p")}, params=("p",))
        count, sols = count_solutions(IDENTITY_ACTION, e, {"p": 0})
        assert count == 1 and sols[0] == {"x": 0}

    def test_missing_parameter_value(self):
        e = system(SIG_A, {"x": FlatTerm("a", (Param("p"),))}, params=("p",))
        with pytest.raises(UndeclaredName):
            count_solutions(IDENTITY_ACTION, e, {})

    def test_parameter_value_outside_carrier(self):
        as_argument = system(SIG_A, {"x": FlatTerm("a", (Param("p"),))}, params=("p",))
        as_rhs = system(SIG_A, {"x": Param("p")}, params=("p",))
        for e in (as_argument, as_rhs):
            with pytest.raises(ValueError, match="not in the carrier"):
                count_solutions(IDENTITY_ACTION, e, {"p": "zzz"})

    def test_budget(self):
        names = tuple(f"x{i}" for i in range(30))
        e = EquationSystem(
            SIG_A, names, (), {x: FlatTerm("a", (Var(x),)) for x in names}
        )
        with pytest.raises(SizeLimitExceeded):
            count_solutions(IDENTITY_ACTION, e, budget=1000)


class TestIsCorecursive:
    def test_one_element_algebra(self):
        trivial = unary_algebra(SIG_A, ("*",), {"a": {"*": "*"}})
        assert is_corecursive(trivial, 3).holds

    def test_identity_action_fails(self):
        verdict = is_corecursive(IDENTITY_ACTION, 2)
        assert not verdict.holds
        assert verdict.solution_count == 2
        # witness is replayable
        count, _ = count_solutions(
            IDENTITY_ACTION, verdict.witness, verdict.witness_valuation
        )
        assert count == verdict.solution_count

    def test_terminal_chain_algebra(self):
        # carrier {a, b}, action (letter, value) -> letter
        algebra = FiniteAlgebra(
            SIG_AB,
            ("a", "b"),
            {
                "a": {("a",): "a", ("b",): "a"},
                "b": {("a",): "b", ("b",): "b"},
            },
        )
        # oracle: every system forces s(x) = letter of its rhs, so uniqueness
        # holds; confirmed exhaustively by the sweep
        assert is_corecursive(algebra, 3).holds

    def test_failure_is_monotone_in_bound(self):
        for bound in (1, 2, 3):
            assert not is_corecursive(IDENTITY_ACTION, bound).holds


def _sweep_oracle(algebra, max_vars, with_params, budget):
    """The tagged per-assignment sweep that the bitmask count replaced."""
    n = len(algebra.carrier)
    to_index = {c: i for i, c in enumerate(algebra.carrier)}
    work = 0
    for m in range(1, max_vars + 1):
        # ("u", table, j) unary symbol on variable j; ("k", v) a fixed target
        # (constant symbol or parameter); ("g", table, idxs) the general case
        evals, builders = [], []
        for name, arity in algebra.signature.symbols:
            if arity == 1:
                table = tuple(
                    to_index[algebra.apply(name, (algebra.carrier[i],))] for i in range(n)
                )
                for j in range(m):
                    evals.append(("u", table, j))
                    builders.append((name, (j,)))
            elif arity == 0:
                evals.append(("k", to_index[algebra.apply(name, ())]))
                builders.append((name, ()))
            else:
                table = {
                    idx: to_index[algebra.apply(name, tuple(algebra.carrier[i] for i in idx))]
                    for idx in itertools.product(range(n), repeat=arity)
                }
                for idxs in itertools.product(range(m), repeat=arity):
                    evals.append(("g", table, idxs))
                    builders.append((name, idxs))
        for target in range(n) if with_params else ():
            evals.append(("k", target))
            builders.append((None, target))
        work += len(evals) ** m * (n**m)
        if budget is not None and work > budget:
            raise SizeLimitExceeded(f"sweep needs {work} steps, budget is {budget}")
        assignments = list(itertools.product(range(n), repeat=m))
        for combo in itertools.product(range(len(evals)), repeat=m):
            count = 0
            for assign in assignments:
                for i in range(m):
                    option = evals[combo[i]]
                    if option[0] == "u":
                        expected = option[1][assign[option[2]]]
                    elif option[0] == "k":
                        expected = option[1]
                    else:
                        expected = option[1][tuple(assign[j] for j in option[2])]
                    if assign[i] != expected:
                        break
                else:
                    count += 1
            if count != 1:
                names = [f"x{i + 1}" for i in range(m)]
                rhs, param_names = {}, {}
                for i, c in enumerate(combo):
                    sym, rest = builders[c]
                    if sym is None:
                        rhs[names[i]] = Param(param_names.setdefault(rest, f"p{rest}"))
                    else:
                        rhs[names[i]] = FlatTerm(sym, tuple(Var(names[j]) for j in rest))
                params = tuple(param_names[t] for t in sorted(param_names))
                valuation = {param_names[t]: algebra.carrier[t] for t in param_names}
                witness = EquationSystem(algebra.signature, tuple(names), params, rhs)
                return CheckVerdict(False, witness, valuation, count, max_vars)
    return CheckVerdict(True, None, None, None, max_vars)


@st.composite
def finite_algebras(draw):
    n = draw(st.integers(1, 3))
    carrier = tuple("abc"[:n])
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    sig = Signature(tuple((f"f{i}", a) for i, a in enumerate(arities)))
    tables = {
        name: {
            args: draw(st.sampled_from(carrier))
            for args in itertools.product(carrier, repeat=arity)
        }
        for name, arity in sig.symbols
    }
    return FiniteAlgebra(sig, carrier, tables)


def _outcome(sweep, *args):
    try:
        return sweep(*args)
    except SizeLimitExceeded as exc:
        return str(exc)


class TestSweepMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        finite_algebras(),
        st.integers(1, 3),
        st.booleans(),
        st.integers(1, 20000),
    )
    def test_same_verdict_and_budget_message(self, algebra, max_vars, cia, budget):
        sweep = is_cia if cia else is_corecursive
        got = _outcome(sweep, algebra, max_vars, budget)
        assert got == _outcome(_sweep_oracle, algebra, max_vars, cia, budget)
        if isinstance(got, CheckVerdict) and not got.holds:
            count, _ = count_solutions(algebra, got.witness, got.witness_valuation)
            assert count == got.solution_count

    def test_constant_unary_algebra_at_five_variables(self):
        # 8 options and 243 assignments per variable at m = 5: 8.16 M steps
        # of the per-assignment loop, a few thousand mask updates here
        algebra = unary_algebra(SIG_A, (0, 1, 2), {"a": {0: 0, 1: 0, 2: 0}})
        started = time.perf_counter()
        verdict = is_cia(algebra, 5, budget=None)
        assert time.perf_counter() - started < 0.5
        assert verdict.holds


class TestIsCia:
    def test_one_element_algebra(self):
        trivial = unary_algebra(SIG_A, ("*",), {"a": {"*": "*"}})
        assert is_cia(trivial, 3).holds

    def test_identity_action_fails(self):
        verdict = is_cia(IDENTITY_ACTION, 2)
        assert not verdict.holds

    def test_cia_witness_replayable(self):
        verdict = is_cia(NEGATION_ACTION, 2)
        # x = a(x) has zero solutions under negation
        assert not verdict.holds
        count, _ = count_solutions(
            NEGATION_ACTION, verdict.witness, verdict.witness_valuation
        )
        assert count == verdict.solution_count != 1


class TestAnchorCorrespondence:
    def test_identity_loop(self):
        e = system(SIG_A, {"x": FlatTerm("a", (Var("x"),))})
        report = anchor_correspondence(IDENTITY_ACTION, e)
        assert report.anchor_count == report.solution_count == 2
        assert report.bijective

    def test_negation_loop(self):
        e = system(SIG_A, {"x": FlatTerm("a", (Var("x"),))})
        report = anchor_correspondence(NEGATION_ACTION, e)
        assert report.anchor_count == report.solution_count == 0
        assert report.bijective

    def test_layered_system(self):
        e = system(
            SIG_A,
            {"x1": FlatTerm("a", (Var("x2"),)), "x2": Param("p")},
            params=("p",),
        )
        report = anchor_correspondence(IDENTITY_ACTION, e, {"p": 1})
        assert report.anchor_count == report.solution_count == 1
        assert report.bijective


class TestWitnessNonCia:
    def test_binary_symbol_reproduces_spine(self):
        witness = witness_non_cia(SIG_BIN, 8)
        expected = RationalTree(
            SIG_BIN, (OpStep("sigma", (0, 1)), LeafStep("y2")), 0
        )
        assert bisim_equal(witness.tree, expected)
        assert witness.leaf_count == INFINITE
        assert witness.leaf_at_every_level
        assert witness.ok

    def test_ternary_symbol(self):
        sig = Signature((("alpha", 3),))
        witness = witness_non_cia(sig, 20)
        assert witness.leaf_count == INFINITE
        assert witness.leaf_at_every_level
        # cut-level oracle: a y2 leaf occurs at every depth 1..20
        from corec.core import ParamLeaf
        from corec.rtree import cut

        snapshot = cut(witness.tree, 21)
        depths = set()
        stack = [(snapshot, 0)]
        seen = set()
        while stack:
            node, d = stack.pop()
            if (id(node), d) in seen:
                continue
            seen.add((id(node), d))
            if isinstance(node, ParamLeaf):
                if node.name == "y2":
                    depths.add(d)
            else:
                stack.extend((c, d + 1) for c in node.children)
        assert set(range(1, 21)) <= depths

    def test_unary_only_signature(self):
        with pytest.raises(NoLargeAritySymbol):
            witness_non_cia(SIG_AB, 5)


class TestRewriteInvariance:
    def test_empty_axioms_equal(self):
        empty = Presentation(SIG_US, ())
        e = system(
            SIG_US,
            {"x": FlatTerm("u", (Var("x"), Param("y1")))},
            params=("y1",),
        )
        assert check_rewrite_invariance(empty, e, 4).is_equal

    def test_commutativity_rewrite(self):
        comm = Presentation(SIG_US, ((flat("u", "p", "q"), flat("u", "q", "p")),))
        e = system(
            SIG_US,
            {"x": FlatTerm("u", (Var("x"), Param("y1")))},
            params=("y1",),
        )
        rewritten = rewrite_system(comm, e)
        r = rewritten.rhs_of("x")
        assert r == FlatTerm("u", (Param("y1"), Var("x")))
        assert check_rewrite_invariance(comm, e, 8).is_equal

    def test_distinct_systems_detected(self):
        empty = Presentation(SIG_US, ())
        e = system(
            SIG_US,
            {"x": FlatTerm("u", (Var("x"), Param("y1")))},
            params=("y1",),
        )
        other = system(
            SIG_US,
            {"x": FlatTerm("s", (Var("x"),))},
            params=("y1",),
        )
        verdict = check_rewrite_invariance(empty, e, 4, rewritten=other)
        assert verdict.is_distinct


class TestUnaryCiaEquivalence:
    def test_small_sweep_corecursive_iff_cia(self):
        # for unary signatures the two sweeps agree; checked exhaustively on
        # two-element carriers over a one-letter alphabet
        for t0, t1 in itertools.product((0, 1), repeat=2):
            algebra = unary_algebra(SIG_A, (0, 1), {"a": {0: t0, 1: t1}})
            assert is_corecursive(algebra, 2).holds == is_cia(algebra, 2).holds
