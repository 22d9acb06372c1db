"""No function in src/corec calls itself, directly or through other functions of its module.

Every walk in the engine is a loop over an explicit stack, so no input is too
deep for it.  This test keeps it that way: it builds each module's call graph
from the syntax and fails on any cycle.  Edges are calls by bare name to
functions of the module (module-level ones and nested helpers in scope) and
``self.`` calls to methods of the same class, or of a base class defined in
the module.  A local name that shadows a function, such as ``run`` assigned
inside ``cli._dispatch``, is not a call to that function, and ``super()``
calls are not followed.
"""

import ast
import pathlib
import textwrap

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "corec"
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(fn):
    """The nodes of a function's body outside nested functions and classes.

    A nested def or class node itself is included; its body is not.
    """
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCS + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))


def _bound_names(fn) -> set[str]:
    """Names a function binds: parameters, assignment targets, imports, nested defs."""
    names = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
    for node in _own_nodes(fn):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.arg):  # lambda parameters
            names.add(node.arg)
        elif isinstance(node, FUNCS + (ast.ClassDef,)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def call_graph(source: str) -> dict[str, set[str]]:
    """Function -> functions of the same module it calls, by qualified name."""
    module = ast.parse(source)
    module_funcs = {n.name for n in module.body if isinstance(n, FUNCS)}
    classes = {n.name: n for n in module.body if isinstance(n, ast.ClassDef)}
    methods = {c: {m.name for m in node.body if isinstance(m, FUNCS)} for c, node in classes.items()}
    bases = {
        c: [b.id for b in node.bases if isinstance(b, ast.Name) and b.id in classes]
        for c, node in classes.items()
    }

    def method(cls: str, name: str) -> str | None:
        pending = [cls]
        while pending:
            c = pending.pop(0)
            if name in methods[c]:
                return f"{c}.{name}"
            pending += bases[c]
        return None

    work = [(n, n.name, {}, None) for n in module.body if isinstance(n, FUNCS)]
    for c, node in classes.items():
        work += [(m, f"{c}.{m.name}", {}, c) for m in node.body if isinstance(m, FUNCS)]
    graph: dict[str, set[str]] = {}
    while work:
        fn, qual, outer, cls = work.pop()
        bound = _bound_names(fn)
        nested = {n.name: f"{qual}.{n.name}" for n in _own_nodes(fn) if isinstance(n, FUNCS)}
        scope = {name: q for name, q in outer.items() if name not in bound}
        scope.update(nested)
        edges = graph.setdefault(qual, set())
        for node in _own_nodes(fn):
            if isinstance(node, FUNCS):
                work.append((node, nested[node.name], scope, cls))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                name = node.func.id
                if name in scope:
                    edges.add(scope[name])
                elif name in module_funcs and name not in bound:
                    edges.add(name)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                owner = node.func.value
                if cls is not None and isinstance(owner, ast.Name) and owner.id == "self":
                    target = method(cls, node.func.attr)
                    if target is not None:
                        edges.add(target)
    return graph


def recursive_functions(source: str) -> set[str]:
    """The functions that can reach themselves in the module's call graph."""
    graph = call_graph(textwrap.dedent(source))
    found = set()
    for start in graph:
        seen: set[str] = set()
        pending = list(graph[start])
        while pending:
            f = pending.pop()
            if f == start:
                found.add(start)
                break
            if f not in seen:
                seen.add(f)
                pending.extend(graph.get(f, ()))
    return found


def test_no_function_in_corec_recurses():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = {p.name: recursive_functions(p.read_text()) for p in paths}
    assert {name: fns for name, fns in found.items() if fns} == {}


def test_flags_direct_and_mutual_recursion():
    assert recursive_functions("def f(n):\n    return f(n - 1)\n") == {"f"}
    mutual = """
        def even(n):
            return n == 0 or odd(n - 1)

        def odd(n):
            return n != 0 and even(n - 1)

        def entry(n):
            return even(n)
    """
    assert recursive_functions(mutual) == {"even", "odd"}


def test_flags_nested_helpers_and_methods():
    nested = """
        def outer(tree):
            def go(t):
                return [go(c) for c in t]
            return go(tree)
    """
    assert recursive_functions(nested) == {"outer.go"}
    methods = """
        class Base:
            def walk(self, n):
                return self.step(n)

            def step(self, n):
                return self.walk(n - 1)

        class Child(Base):
            def deep(self):
                return self.deep()

            def other(self):
                return self.walk(1) + self.missing()
    """
    assert recursive_functions(methods) == {"Base.walk", "Base.step", "Child.deep"}


def test_ignores_shadowing_names_and_super():
    source = """
        def run():
            return main()

        def main():
            run = len
            return run([])

        def apply(f):
            return (lambda main: main(1))(f)

        class Base:
            def __init__(self):
                self.ready = True

        class Child(Base):
            def __init__(self):
                super().__init__()
    """
    assert recursive_functions(source) == set()
