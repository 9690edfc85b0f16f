"""K0 classes: finitely supported integer sums of rational grades.

These are elements of the group ring Z[Q] (rational-support classes inside
Z[R]), written ``sum n_a . e_a``.  Addition is pointwise, multiplication is
the group-ring convolution e_a . e_b = e_{a+b}.
"""

from __future__ import annotations

from .errors import InvalidInput
from .rational import is_finite, q


class K0Class:
    __slots__ = ("terms",)

    def __init__(self, terms=()):
        acc: dict = {}
        for grade, coef in terms:
            if not is_finite(grade):
                raise InvalidInput("K0 classes have finite rational support")
            if type(coef) is not int:
                raise InvalidInput("K0 coefficients must be ints")
            grade = q(grade)
            acc[grade] = acc.get(grade, 0) + coef
        self.terms = tuple(sorted((g, c) for g, c in acc.items() if c != 0))

    def __add__(self, other: "K0Class") -> "K0Class":
        return K0Class(list(self.terms) + list(other.terms))

    def __neg__(self) -> "K0Class":
        return K0Class([(g, -c) for g, c in self.terms])

    def __sub__(self, other: "K0Class") -> "K0Class":
        return self + (-other)

    def __mul__(self, other: "K0Class") -> "K0Class":
        prods = []
        for g1, c1 in self.terms:
            for g2, c2 in other.terms:
                prods.append((g1 + g2, c1 * c2))
        return K0Class(prods)

    def __eq__(self, other):
        return isinstance(other, K0Class) and other.terms == self.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        if not self.terms:
            return "K0Class(0)"
        body = " + ".join(f"{c}*e[{g}]" for g, c in self.terms)
        return f"K0Class({body})"
