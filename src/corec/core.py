"""Signatures, flat terms, finite trees, and flat equation systems.

Shared vocabulary for the whole package.  All values are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Union

from .errors import (
    ArityMismatch,
    DuplicateSymbol,
    EmptySignature,
    ReservedParameter,
    SizeLimitExceeded,
    UnboundAtom,
    UndeclaredName,
)

#: Reserved leaf label introduced by depth cutting; rejected in user input.
BOTTOM = "⊥"
#: ASCII spelling of the reserved label, accepted and produced by file formats.
BOTTOM_ALIAS = "_bot"
#: Default cap for enumeration-style operations.
DEFAULT_BUDGET = 10**6

Atom = Hashable


def is_reserved_name(name: object) -> bool:
    return name in (BOTTOM, BOTTOM_ALIAS)


@dataclass(frozen=True)
class Signature:
    """A finite list of operation symbols with arities, in declaration order."""

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "symbols", tuple((str(n), int(a)) for n, a in self.symbols)
        )
        validate_signature(self)
        object.__setattr__(self, "_arities", dict(self.symbols))

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.symbols)

    def arity(self, name: str) -> int:
        try:
            return self._arities[name]
        except KeyError:
            raise UndeclaredName(f"unknown operation symbol {name!r}") from None

    def __contains__(self, name: object) -> bool:
        return name in self._arities

    @property
    def max_arity(self) -> int:
        return max(a for _, a in self.symbols)

    @property
    def all_unary(self) -> bool:
        return all(a == 1 for _, a in self.symbols)

    def constant_symbols(self) -> tuple[str, ...]:
        return tuple(n for n, a in self.symbols if a == 0)


def validate_signature(signature: Signature) -> None:
    """Check the signature invariants, raising on the first violation."""
    if not signature.symbols:
        raise EmptySignature("a signature needs at least one operation symbol")
    seen = set()
    for name, arity in signature.symbols:
        if name in seen:
            raise DuplicateSymbol(f"operation symbol {name!r} declared twice")
        seen.add(name)
        if arity < 0:
            raise ArityMismatch(f"symbol {name!r} has negative arity {arity}")


@dataclass(frozen=True)
class Var:
    """Atom referencing a recursion variable of an equation system."""

    name: str


@dataclass(frozen=True)
class Param:
    """Atom referencing a parameter of an equation system."""

    name: str


@dataclass(frozen=True)
class FlatTerm:
    """A depth-1 term: one operation symbol applied to a tuple of atoms.

    Atoms are opaque hashable values.  Equation systems use Var and Param
    atoms; the presentation machinery uses plain names or integers.
    """

    head: str
    args: tuple[Atom, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))

    def check(self, signature: Signature) -> None:
        arity = signature.arity(self.head)
        if len(self.args) != arity:
            raise ArityMismatch(
                f"{self.head!r} has arity {arity} but got {len(self.args)} arguments"
            )

    def __str__(self) -> str:
        def show(a: Atom) -> str:
            if isinstance(a, (Var, Param)):
                return a.name
            return str(a)

        return f"{self.head}({', '.join(show(a) for a in self.args)})"


def flat(head: str, *args: Atom) -> FlatTerm:
    return FlatTerm(head, tuple(args))


@dataclass(frozen=True)
class Op:
    """Inner node of a finite tree: a symbol applied to child trees."""

    symbol: str
    children: tuple["FiniteTree", ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True)
class ParamLeaf:
    """Leaf of a finite tree labeled by a parameter name."""

    name: str


FiniteTree = Union[Op, ParamLeaf]


def op(symbol: str, *children: FiniteTree) -> Op:
    return Op(symbol, tuple(children))


@dataclass(frozen=True, eq=True)
class EquationSystem:
    """A guarded recursive equation system: one flat right-hand side per variable.

    Each variable is mapped either to a flat term (whose atoms reference
    variables or parameters) or directly to a parameter.  Variables and
    parameters live in disjoint name spaces declared up front.
    """

    signature: Signature
    variables: tuple[str, ...]
    parameters: tuple[str, ...]
    rhs: Mapping[str, Union[FlatTerm, Param]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(str(v) for v in self.variables))
        object.__setattr__(self, "parameters", tuple(str(p) for p in self.parameters))
        object.__setattr__(self, "rhs", dict(self.rhs))
        self._validate()

    def _validate(self) -> None:
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable name")
        if len(set(self.parameters)) != len(self.parameters):
            raise ValueError("duplicate parameter name")
        varset, paramset = set(self.variables), set(self.parameters)
        if varset & paramset:
            clash = sorted(varset & paramset)[0]
            raise ValueError(f"name {clash!r} declared both as variable and parameter")
        for name in itertools.chain(self.variables, self.parameters):
            if is_reserved_name(name):
                raise ReservedParameter(f"{name!r} is reserved for depth cutting")
        if set(self.rhs) != varset:
            missing = sorted(varset - set(self.rhs))
            if missing:
                raise ValueError(f"no equation for variable {missing[0]!r}")
            extra = sorted(set(self.rhs) - varset)
            raise UndeclaredName(f"equation for undeclared variable {extra[0]!r}")
        for x in self.variables:
            r = self.rhs[x]
            if isinstance(r, Param):
                if r.name not in paramset:
                    raise UndeclaredName(f"undeclared parameter {r.name!r} in rhs of {x!r}")
            elif isinstance(r, FlatTerm):
                r.check(self.signature)
                for a in r.args:
                    if isinstance(a, Var):
                        if a.name not in varset:
                            raise UndeclaredName(
                                f"undeclared variable {a.name!r} in rhs of {x!r}"
                            )
                    elif isinstance(a, Param):
                        if a.name not in paramset:
                            raise UndeclaredName(
                                f"undeclared parameter {a.name!r} in rhs of {x!r}"
                            )
                    else:
                        raise ValueError(
                            f"rhs of {x!r} contains an untagged atom {a!r}; use Var or Param"
                        )
            else:
                raise ValueError(f"rhs of {x!r} must be a FlatTerm or Param")

    def rhs_of(self, variable: str) -> Union[FlatTerm, Param]:
        try:
            return self.rhs[variable]
        except KeyError:
            raise UndeclaredName(f"unknown variable {variable!r}") from None


def enumerate_flat_terms(
    signature: Signature,
    atoms: Iterable[Atom],
    budget: int | None = DEFAULT_BUDGET,
) -> list[FlatTerm]:
    """All flat terms over the given atoms, in deterministic order.

    Order is lexicographic by (symbol declaration index, atom indices in the
    order the atoms were supplied).  The total count is checked against the
    budget before any term is built.
    """
    seq = list(dict.fromkeys(atoms))
    count = sum(len(seq) ** arity for _, arity in signature.symbols)
    if budget is not None and count > budget:
        raise SizeLimitExceeded(f"{count} flat terms exceed budget {budget}")
    out: list[FlatTerm] = []
    for name, arity in signature.symbols:
        for combo in itertools.product(seq, repeat=arity):
            out.append(FlatTerm(name, combo))
    return out


def substitute_flat(term: FlatTerm, mapping: Mapping[Atom, Atom]) -> FlatTerm:
    """Replace every atom of the term via the mapping; the head is kept."""
    try:
        return FlatTerm(term.head, tuple(mapping[a] for a in term.args))
    except KeyError as exc:
        raise UnboundAtom(f"substitution not defined on atom {exc.args[0]!r}") from None
