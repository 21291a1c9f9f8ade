"""Sentences with limits known in closed form, written out as text.

Every builder returns formula text in limlaw's grammar together with the
exact limit derived by hand from the construction-step picture (a uniform
size-n structure is n-1 fair coin flips, "start a new class" or "grow the
last class"), not by limlaw:

* ``first_class``: the first class has at least m points, that is the
  first m-1 steps all grow: 2^-(m-1).
* ``last_class``: the last class has at least m points, the last m-1 steps
  all grow: 2^-(m-1).
* ``distinct_start``: the first m points lie in m distinct classes, that
  is the first m-1 classes are singletons and the first m-1 steps all start
  a new class: 2^-(m-1).
* ladder A: m points, consecutive ones in different classes, each class of
  size at least 2; ladder B: m pairwise E-inequivalent points.  Almost every
  large structure contains any fixed finite pattern of classes, so both
  have limit 1.

Each family is written natively in the four theories' signatures, so the
layered and composition translations are on the measured path.  The
quantifier depth is m for the three families (m >= 2), m + 1 for ladder A
and m for ladder B.
"""
from __future__ import annotations

from fractions import Fraction

THEORIES = ("convex", "layered", "composition", "fractured")
FAMILIES = ("first_class", "last_class", "distinct_start")


def _and(*parts: str) -> str:
    # a quantifier's body runs to the end of the formula, so a quantified
    # conjunct needs its own parentheses
    return "(" + " & ".join(
        f"({p})" if p.startswith(("exists", "forall")) else p
        for p in parts) + ")"


class _Vocab:
    """The atomic building blocks of one theory, over given variable names."""

    def __init__(self, theory: str):
        self.theory = theory

    def lt(self, a: str, b: str) -> str:
        """a before b in the point order (not available for compositions)."""
        return {"convex": f"{a} < {b}",
                "layered": f"{a} <1 {b}",
                "fractured": f"({a} p1 {b} | {a} p2 {b})"}[self.theory]

    def same(self, a: str, b: str) -> str:
        """a and b distinct and in one class."""
        if self.theory == "layered":
            return f"(({a} <1 {b} & {b} <2 {a}) | ({b} <1 {a} & {a} <2 {b}))"
        return f"({a} E {b} & !({a} = {b}))"

    def class_before(self, a: str, b: str) -> str:
        """a's class comes before b's class."""
        if self.theory in ("composition", "fractured"):
            return f"{a} p1 {b}"
        if self.theory == "layered":
            return f"({a} <1 {b} & {a} <2 {b})"
        return f"({a} < {b} & !({a} E {b}))"

    def in_first_class(self, x: str, z: str) -> str:
        return f"!(exists {z}. {self.class_before(z, x)})"

    def in_last_class(self, x: str, z: str) -> str:
        return f"!(exists {z}. {self.class_before(x, z)})"

    def singleton(self, x: str, z: str) -> str:
        return f"!(exists {z}. {self.same(z, x)})"

    def next_class(self, a: str, b: str, z: str) -> str:
        """b's class directly follows a's class."""
        return _and(self.class_before(a, b),
                    f"!(exists {z}. {_and(self.class_before(a, z), self.class_before(z, b))})")


def _nest(xs: list[str], first: str, step, i: int = 0) -> str:
    """exists x0. (first & exists x1. (step(1) & exists x2. (step(2) & ...)))."""
    head = first if i == 0 else step(i)
    if i + 1 == len(xs):
        return f"exists {xs[i]}. {head}"
    return f"exists {xs[i]}. " + _and(head, _nest(xs, first, step, i + 1))


def family(name: str, theory: str, m: int, names: list[str]) -> tuple[str, Fraction]:
    """Text and limit of a closed-form family member; ``names`` supplies at
    least m + 1 distinct variable names."""
    if m < 2:
        raise ValueError("families start at m = 2")
    v = _Vocab(theory)
    xs, z = names[:m], names[m]
    if name in ("first_class", "last_class"):
        edge = v.in_first_class if name == "first_class" else v.in_last_class

        def member(i: int) -> str:
            # x_{i+1} is a new point of x1's class; the points are kept
            # distinct by ordering them where the theory has an order
            if theory == "composition":
                return _and(v.same(xs[i], xs[0]),
                            *[f"!({xs[i]} = {xs[j]})" for j in range(1, i)])
            if name == "first_class":
                return _and(v.lt(xs[i - 1], xs[i]), v.same(xs[i], xs[0]))
            return _and(v.lt(xs[i], xs[i - 1]), v.same(xs[i], xs[0]))

        text = _nest(xs, edge(xs[0], z), member)
    elif name == "distinct_start":
        # the first m-1 classes are singletons
        text = _nest(xs[:m - 1],
                     _and(v.in_first_class(xs[0], z), v.singleton(xs[0], z)),
                     lambda i: _and(v.next_class(xs[i - 1], xs[i], z),
                                    v.singleton(xs[i], z)))
    else:
        raise ValueError(f"unknown family {name!r}")
    return text, Fraction(1, 2 ** (m - 1))


def ladder_a(m: int, names: list[str]) -> tuple[str, Fraction]:
    """m points in increasing order, consecutive ones in different classes,
    each with a class-mate; quantifiers in front (convex, depth m + 1)."""
    xs, z = names[:m], names[m]
    parts = []
    for a, b in zip(xs, xs[1:]):
        parts += [f"{a} < {b}", f"!({a} E {b})"]
    parts += [f"exists {z}. ({z} E {x} & !({z} = {x}))" for x in xs]
    return "".join(f"exists {x}. " for x in xs) + _and(*parts), Fraction(1)


def ladder_b(m: int, names: list[str]) -> tuple[str, Fraction]:
    """m pairwise E-inequivalent points, quantifiers in front (convex,
    depth m)."""
    xs = names[:m]
    pairs = [f"!({xs[i]} E {xs[j]})" for i in range(m) for j in range(i + 1, m)]
    prefix = "".join(f"exists {x}. " for x in xs)
    return prefix + _and(*pairs), Fraction(1)
