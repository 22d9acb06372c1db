import itertools
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from corec.cli import (
    emit_check,
    emit_decomposed,
    emit_solution,
    format_ceq,
    main,
    parse_ceq,
    parse_ceq_with_root,
    parse_falg,
    parse_pres,
    parse_solution_json,
    render_mu,
)
from corec.checker import is_corecursive, satisfies_presentation
from corec.core import FlatTerm, Param, Signature, Var
from corec.errors import (
    ArityMismatch,
    IncompleteTable,
    ParseError,
    ReservedParameter,
    UndeclaredName,
)
from corec.rtree import LeafStep, OpStep, RationalTree, bisim_equal
from corec.solver import solve, solve_decomposed, tree_to_system

SPINE_FILE = """\
# the self-nesting binary example
signature sigma:2
params y
eq x1 = sigma(x1, x2)
eq x2 = y
root x1
"""

SEMILATTICE_PRES = """\
signature u:2 s:1
axiom u(p, q) = u(q, p)
axiom u(p, p) = s(p)
"""

JOIN_ALG = """\
signature u:2 s:1
carrier 0 1
table u: 0 0 -> 0
table u: 0 1 -> 1
table u: 1 0 -> 1
table u: 1 1 -> 1
table s: 0 -> 0
table s: 1 -> 1
"""


class TestParseCeq:
    def test_spine_file(self):
        system, root = parse_ceq_with_root(SPINE_FILE)
        assert system.variables == ("x1", "x2")
        assert system.parameters == ("y",)
        assert root == "x1"
        assert system.rhs_of("x1") == FlatTerm("sigma", (Var("x1"), Var("x2")))
        assert system.rhs_of("x2") == Param("y")

    def test_undeclared_symbol(self):
        text = "signature g:1\neq x = f(x)\n"
        with pytest.raises(UndeclaredName):
            parse_ceq(text)

    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse_ceq("")

    def test_reserved_names(self):
        with pytest.raises(ReservedParameter):
            parse_ceq("signature a:1\nparams _bot\neq x = _bot\n")
        with pytest.raises(ReservedParameter):
            parse_ceq("signature a:1\nparams ⊥\neq x = ⊥\n")

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            parse_ceq("signature f:2\nparams y\neq x = f(y)\n")

    def test_bare_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_ceq("signature a:1\neq x = x\n")

    def test_round_trip_through_format(self):
        system = parse_ceq(SPINE_FILE)
        again = parse_ceq(format_ceq(system))
        assert again == system


class TestParsePres:
    def test_one_axiom(self):
        text = "signature u:2\naxiom u(p, q) = u(q, p)\n"
        pres = parse_pres(text)
        assert len(pres.axioms) == 1
        assert pres.axioms[0][0] == FlatTerm("u", ("p", "q"))

    def test_semilattice(self):
        pres = parse_pres(SEMILATTICE_PRES)
        algebra = parse_falg(JOIN_ALG)
        assert satisfies_presentation(algebra, pres)

    def test_malformed_axiom(self):
        with pytest.raises(ParseError):
            parse_pres("signature u:2\naxiom u(p, q)\n")


class TestParseFalg:
    def test_missing_row(self):
        text = """\
signature s:1
carrier 0 1
table s: 0 -> 1
"""
        with pytest.raises(IncompleteTable):
            parse_falg(text)

    def test_round_trip_check(self):
        algebra = parse_falg(JOIN_ALG)
        assert algebra.apply("u", ("0", "1")) == "1"
        assert not is_corecursive(algebra, 1).holds

    def test_duplicate_row(self):
        text = JOIN_ALG + "table s: 0 -> 0\n"
        with pytest.raises(ParseError):
            parse_falg(text)


class TestEmit:
    def test_mu_notation(self):
        solution = solve(parse_ceq(SPINE_FILE))
        assert render_mu(solution["x1"]) == "mu s0. sigma(s0, y)"
        assert render_mu(solution["x2"]) == "y"
        text = emit_solution(solution, "text")
        assert "x1 = mu s0. sigma(s0, y)" in text
        assert "x2 = y" in text

    def test_mu_renders_constants_bare(self):
        solution = solve(parse_ceq("signature cons:2 nil:0\nparams y\neq x = cons(y, x2)\neq x2 = nil()\n"))
        assert render_mu(solution["x"]) == "cons(y, nil)"

    def test_decomposed_text(self):
        system = parse_ceq("signature a:1\neq x = a(x)\n")
        decomposed = solve_decomposed(system)
        text = emit_decomposed(decomposed, "text", system.signature)
        assert "x : stream (a)^w" in text

    def test_finite_part_text(self):
        system = parse_ceq(
            "signature a:1 b:1\nparams y\neq x1 = a(x2)\neq x2 = b(x3)\neq x3 = y\n"
        )
        text = emit_decomposed(solve_decomposed(system), "text", system.signature)
        assert 'x1 : finite word "a b" leaf y' in text

    def test_json_round_trip(self):
        solution = solve(parse_ceq(SPINE_FILE))
        blob = emit_solution(solution, "json")
        rebuilt = parse_solution_json(blob)
        for name, tree in solution.items():
            assert bisim_equal(rebuilt[name], tree)

    def test_decomposed_json_round_trip(self):
        system = parse_ceq(
            "signature a:1 b:1\nparams y\neq x1 = a(x2)\neq x2 = y\neq x3 = b(x3)\n"
        )
        decomposed = solve_decomposed(system)
        blob = emit_decomposed(decomposed, "json", system.signature)
        rebuilt = parse_solution_json(blob)
        assert rebuilt == decomposed

    def test_ceq_round_trip_of_trees(self):
        solution = solve(parse_ceq(SPINE_FILE))
        for tree in solution.values():
            system, root = tree_to_system(tree)
            reparsed = parse_ceq(format_ceq(system, root))
            assert bisim_equal(solve(reparsed)[root], tree)

    def test_dot_contains_states(self):
        solution = solve(parse_ceq(SPINE_FILE))
        dot = emit_solution(solution, "dot")
        assert dot.startswith("digraph")
        assert '"x1.0" [label="sigma", shape=circle];' in dot
        assert "label=\"y\"" in dot

    def test_check_text(self):
        algebra = parse_falg(JOIN_ALG)
        verdict = is_corecursive(algebra, 2)
        text = emit_check(verdict, "text")
        assert text.startswith("fails")


class TestMain:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_solve_command(self, tmp_path, capsys):
        path = self._write(tmp_path, "spine.ceq", SPINE_FILE)
        assert main(["solve", path]) == 0
        out = capsys.readouterr().out
        assert "mu s0. sigma(s0, y)" in out

    def test_solve_json(self, tmp_path, capsys):
        path = self._write(tmp_path, "spine.ceq", SPINE_FILE)
        assert main(["--format", "json", "solve", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["signature"] == [["sigma", 2]]

    def test_classify_command(self, tmp_path, capsys):
        path = self._write(
            tmp_path, "sys.ceq", "signature a:1\nparams y\neq x1 = a(x2)\neq x2 = y\n"
        )
        assert main(["classify", path]) == 0
        out = capsys.readouterr().out
        assert "layer 1: x2" in out and "layer 2: x1" in out

    def test_decompose_command(self, tmp_path, capsys):
        path = self._write(tmp_path, "loop.ceq", "signature a:1\neq x = a(x)\n")
        assert main(["decompose", path]) == 0
        assert "stream (a)^w" in capsys.readouterr().out

    def test_check_command_exit_codes(self, tmp_path, capsys):
        path = self._write(tmp_path, "join.falg", JOIN_ALG)
        assert main(["check", "--corecursive", path, "2"]) == 1
        trivial = self._write(
            tmp_path,
            "one.falg",
            "signature a:1\ncarrier 0\ntable a: 0 -> 0\n",
        )
        assert main(["check", "--cia", trivial, "2"]) == 0

    def test_equal_command(self, tmp_path, capsys):
        left = self._write(
            tmp_path, "l.ceq", "signature a:1\neq x = a(x)\n"
        )
        right = self._write(
            tmp_path, "r.ceq", "signature a:1\neq x = a(y)\neq y = a(x)\n"
        )
        assert main(["equal", left, right]) == 0
        different = self._write(
            tmp_path, "d.ceq", "signature a:1\nparams p\neq x = p\n"
        )
        assert main(["equal", left, different]) == 1

    def test_equal_and_witness_solve_only_the_root(self, tmp_path, capsys, monkeypatch):
        import corec.checker
        import corec.cli

        def whole_system(system):
            raise AssertionError("solved the whole system")

        monkeypatch.setattr(corec.cli, "solve", whole_system)
        monkeypatch.setattr(corec.checker, "solve", whole_system)
        left = self._write(tmp_path, "l.ceq", "signature a:1\nparams p\neq x = a(x)\neq y = p\n")
        right = self._write(tmp_path, "r.ceq", "signature a:1\neq z = a(x)\neq x = a(z)\nroot x\n")
        assert main(["equal", left, right]) == 0
        assert main(["-k", "10", "witness", "sigma:2"]) == 0
        assert capsys.readouterr().out.startswith("equal\n")

    def test_parser_built_once(self, capsys, monkeypatch):
        import corec.cli

        def build():
            raise AssertionError("built the parser again")

        monkeypatch.setattr(corec.cli, "_build_parser", build)
        assert main(["-k", "10", "witness", "sigma:2"]) == 0
        assert main(["-k", "0", "witness", "sigma:2"]) == 2

    def test_equal_modulo_unknown_exit_code(self, tmp_path, capsys):
        # an undecided verdict must not read as "equal" (0) or "distinct" (1)
        pres = self._write(tmp_path, "sl.pres", SEMILATTICE_PRES)
        left = self._write(tmp_path, "cl.ceq", "signature u:2\nparams y\neq x = u(x, y)\n")
        right = self._write(tmp_path, "spine.ceq", SPINE_FILE)
        assert main(["-k", "4", "equal", left, right, "--pres", pres]) == 4
        assert capsys.readouterr().out.startswith("unknown")

    def test_equal_modulo_presentation(self, tmp_path, capsys):
        pres = self._write(tmp_path, "comm.pres", "signature u:2\naxiom u(p, q) = u(q, p)\n")
        left = self._write(
            tmp_path, "cl.ceq", "signature u:2\nparams y\neq x = u(x, y)\n"
        )
        right = self._write(
            tmp_path, "cr.ceq", "signature u:2\nparams y\neq x = u(y, x)\n"
        )
        assert main(["-k", "6", "equal", left, right, "--pres", pres]) == 0
        assert capsys.readouterr().out == "equal up to depth 6\n"
        # all depths share one saturation: cost grows linearly in -k
        started = time.perf_counter()
        assert main(["-k", "1100", "equal", left, right, "--pres", pres]) == 0
        assert time.perf_counter() - started < 1.0
        assert capsys.readouterr().out == "equal up to depth 1100\n"

    def test_witness_command(self, capsys):
        assert main(["-k", "10", "witness", "sigma:2"]) == 0
        out = capsys.readouterr().out
        assert "infinite" in out

    def test_reduce_command(self, tmp_path, capsys):
        padded = self._write(
            tmp_path,
            "pad.pres",
            "signature u:2 s:1 sigma:2\n"
            "axiom u(p, q) = u(q, p)\n"
            "axiom u(p, p) = s(p)\n"
            "axiom sigma(p, q) = s(p)\n",
        )
        assert main(["reduce", padded]) == 0
        out = capsys.readouterr().out
        assert "signature u:2 s:1" in out
        assert "# sigma -> s [0]" in out

    def test_quotient_command(self, tmp_path, capsys):
        pres = self._write(tmp_path, "sl.pres", SEMILATTICE_PRES)
        assert main(["quotient", pres, "--atoms", "2"]) == 0
        out = capsys.readouterr().out
        assert "count: 3" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = self._write(tmp_path, "bad.ceq", "nonsense\n")
        assert main(["solve", path]) == 2

    def test_budget_exit_code(self, tmp_path, capsys):
        pres = self._write(tmp_path, "sl.pres", SEMILATTICE_PRES)
        assert main(["--budget", "5", "quotient", pres, "--atoms", "4"]) == 3

    def test_budget_env_override(self, tmp_path, capsys, monkeypatch):
        pres = self._write(tmp_path, "sl.pres", SEMILATTICE_PRES)
        monkeypatch.setenv("COREC_BUDGET", "5")
        assert main(["quotient", pres, "--atoms", "4"]) == 3
        # an explicit flag wins over the environment
        assert main(["--budget", "100000", "quotient", pres, "--atoms", "4"]) == 0

    def test_budget_env_malformed(self, tmp_path, capsys, monkeypatch):
        pres = self._write(tmp_path, "sl.pres", SEMILATTICE_PRES)
        monkeypatch.setenv("COREC_BUDGET", "abc")
        assert main(["quotient", pres, "--atoms", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_bad_depth_is_input_error(self, capsys):
        assert main(["-k", "0", "witness", "sigma:2"]) == 2

    def test_negative_counts_are_input_errors(self, tmp_path, capsys):
        trivial = self._write(tmp_path, "one.falg", "signature a:1\ncarrier 0\ntable a: 0 -> 0\n")
        assert main(["check", "--cia", trivial, "-1"]) == 2
        pres = self._write(tmp_path, "sl.pres", SEMILATTICE_PRES)
        assert main(["quotient", pres, "--atoms", "-3"]) == 2
        assert capsys.readouterr().out == ""

    def test_equal_modulo_arity_conflict(self, tmp_path, capsys):
        left = self._write(tmp_path, "l.ceq", "signature f:2\nparams y\neq x = f(x, y)\n")
        right = self._write(tmp_path, "r.ceq", "signature f:2\nparams y\neq x = f(y, x)\n")
        wider = self._write(tmp_path, "f3.pres", "signature f:3\naxiom f(p, q, r) = f(q, r, p)\n")
        narrower = self._write(tmp_path, "f1.pres", "signature f:1 a:0\naxiom f(u) = a()\n")
        for pres in (wider, narrower):
            assert main(["-k", "4", "equal", left, right, "--pres", pres]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error: ") == 2


SIG_MU = Signature((("f", 2), ("g", 1), ("c", 0)))


def _cycle_states_recursive(tree):
    """Recursive depth-first search for cycle entries: oracle for render_mu's walk."""
    cyclic = set()
    color = {}

    def dfs(s):
        color[s] = 1
        step = tree.steps[s]
        if isinstance(step, OpStep):
            for c in step.children:
                if color.get(c) == 1:
                    cyclic.add(c)
                elif color.get(c) is None:
                    dfs(c)
        color[s] = 2

    dfs(tree.root)
    return cyclic


def _render_mu_recursive(tree):
    """Mutually recursive binder rendering: oracle for the explicit-stack render_mu."""
    cyclic = _cycle_states_recursive(tree)
    counter = itertools.count()

    def go(s, bound):
        if s in bound:
            return bound[s]
        step = tree.steps[s]
        if isinstance(step, LeafStep):
            return step.param
        if s in cyclic:
            name = f"s{next(counter)}"
            inner = dict(bound)
            inner[s] = name
            return f"mu {name}. {_node(step, inner)}"
        return _node(step, bound)

    def _node(step, bound):
        if not step.children:
            return step.symbol
        return f"{step.symbol}({', '.join(go(c, bound) for c in step.children)})"

    return go(tree.root, {})


@st.composite
def mu_trees(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    steps = []
    for _ in range(n):
        kind = draw(st.sampled_from(["leaf", "f", "g", "c"]))
        arity = {"leaf": 0, "f": 2, "g": 1, "c": 0}[kind]
        if kind == "leaf":
            steps.append(LeafStep(draw(st.sampled_from(["y", "z"]))))
        else:
            kids = tuple(draw(st.integers(0, n - 1)) for _ in range(arity))
            steps.append(OpStep(kind, kids))
    return RationalTree(SIG_MU, tuple(steps), draw(st.integers(0, n - 1)))


class TestRenderMu:
    @settings(max_examples=300, deadline=None)
    @given(mu_trees())
    def test_matches_recursive_oracle(self, tree):
        assert render_mu(tree) == _render_mu_recursive(tree)

    def test_deep_chain(self):
        n = 3000
        steps = [OpStep("g", (i + 1,)) for i in range(n - 1)] + [LeafStep("y")]
        tree = RationalTree(SIG_MU, tuple(steps), 0)
        assert render_mu(tree) == "g(" * (n - 1) + "y" + ")" * (n - 1)

    def test_deep_cycle(self):
        n = 3000
        tree = RationalTree(SIG_MU, tuple(OpStep("g", ((i + 1) % n,)) for i in range(n)), 0)
        assert render_mu(tree) == "mu s0. " + "g(" * n + "s0" + ")" * n
