"""Multivariate polynomials with exact rational coefficients.

Terms are stored as {exponent tuple: coefficient}; zero coefficients are
never stored, and exponents must be nonnegative ints.  Includes exact
integration over rational polytopes, by triangulation and, on each
simplex, an integer Dirichlet moment of linear forms at its vertices: one
per monomial of a polynomial, whose forms are the coordinates, or one for
a product of linear forms, which is never expanded (see `integrate`).
Products of integer affine forms are not expanded either: `product_values`
evaluates one at integer points, and `progression_sum` sums it over a
progression of them by Newton's formula.
`compose_affine` is on no query path.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, prod
from operator import mul

from .errors import DomainError
from .linalg import common_denominator
from .polytopes import Polytope, _simplices
from .rationals import Q, ZERO


@dataclass(frozen=True)
class Polynomial:
    terms: dict
    num_vars: int

    def __post_init__(self):
        clean = {}
        for exp, coef in self.terms.items():
            exp = tuple(exp)
            if not all(isinstance(e, int) and e >= 0 for e in exp):
                raise DomainError(f"polynomial term with exponents {list(exp)} and "
                                  f"coefficient {coef}: exponents must be "
                                  f"nonnegative integers")
            if len(exp) != self.num_vars:
                raise DomainError("exponent length does not match variable count")
            c = Q(coef)
            if c != 0:
                clean[exp] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def zero(cls, num_vars: int) -> "Polynomial":
        return cls({}, num_vars)

    @classmethod
    def constant(cls, c, num_vars: int) -> "Polynomial":
        return cls({(0,) * num_vars: Q(c)}, num_vars)

    @classmethod
    def variable(cls, i: int, num_vars: int) -> "Polynomial":
        exp = tuple(1 if j == i else 0 for j in range(num_vars))
        return cls({exp: Q(1)}, num_vars)

    @classmethod
    def linear(cls, coeffs, const=0) -> "Polynomial":
        n = len(coeffs)
        terms = {(0,) * n: Q(const)}
        for i, c in enumerate(coeffs):
            terms[tuple(1 if j == i else 0 for j in range(n))] = Q(c)
        return cls(terms, n)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 here."""
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        terms = dict(self.terms)
        for exp, coef in other.terms.items():
            terms[exp] = terms.get(exp, ZERO) + coef
        return Polynomial(terms, self.num_vars)

    def __neg__(self) -> "Polynomial":
        return Polynomial({e: -c for e, c in self.terms.items()}, self.num_vars)

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = Q(other)
            return Polynomial({e: c * v for e, v in self.terms.items()}, self.num_vars)
        if other.num_vars != self.num_vars:
            raise DomainError("variable count mismatch")
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                terms[exp] = terms.get(exp, ZERO) + c1 * c2
        return Polynomial(terms, self.num_vars)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise DomainError(f"polynomial power {n!r}: the exponent must be a "
                              f"nonnegative integer")
        result = Polynomial.constant(1, self.num_vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.num_vars == other.num_vars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.num_vars, frozenset(self.terms.items())))

    def __call__(self, point):
        point = tuple(Q(x) for x in point)
        total = ZERO
        for exp, coef in self.terms.items():
            v = coef
            for x, e in zip(point, exp):
                if e:
                    v *= x ** e
            total += v
        return total

    def compose_affine(self, matrix, offset) -> "Polynomial":
        """Substitute x_i = offset_i + sum_j matrix[i][j] y_j.

        matrix has one row per old variable; the result is a polynomial in
        len(matrix[0]) new variables (0 rows/columns allowed).  It expands
        in Fractions; `integrate` does not use it, and the reference
        integrator in the tests does.
        """
        new_vars = len(matrix[0]) if matrix and len(matrix) else 0
        if matrix and len(matrix) != self.num_vars:
            raise DomainError("substitution matrix row count mismatch")
        if not matrix:
            new_vars = 0
        linear_forms = [Polynomial.linear([Q(c) for c in row], Q(off))
                        for row, off in zip(matrix, offset)]
        power_cache = [dict() for _ in range(self.num_vars)]

        def var_power(i, e):
            cache = power_cache[i]
            if e not in cache:
                cache[e] = linear_forms[i] ** e
            return cache[e]

        result = Polynomial.zero(new_vars)
        for exp, coef in self.terms.items():
            term = Polynomial.constant(coef, new_vars)
            for i, e in enumerate(exp):
                if e:
                    term = term * var_power(i, e)
            result = result + term
        return result

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.num_vars != self.num_vars:
                raise DomainError("variable count mismatch")
            return other
        return Polynomial.constant(other, self.num_vars)


def product_values(forms, points):
    """Yield prod(a.x + b for a, b in forms) at each point x, in ints when
    the forms and the points are integer."""
    for x in points:
        value = 1
        for a, b in forms:
            value *= sum(map(mul, a, x)) + b
        yield value


def progression_sum(forms, first, step, count, divisor=1):
    """Sum of F(x) / divisor, F = prod(a.x + b for a, b in forms), over the int
    points x = first + t step, t < count, in ints; or None unless every
    F(x) / divisor is certainly a positive integer.

    F is a polynomial of degree d in t, d the number of forms that move, so
    its values at t <= m = min(d, count - 1) give sum_t F(t) =
    sum_j Delta^j F(0) C(count, j + 1) (Newton).  The Delta^j F(0) are
    integer combinations of those values: divisor divides every F(t) if it
    divides them.  F > 0 if every form, affine in t, is positive at both ends.
    """
    lines = [(sum(map(mul, a, first)) + b, sum(map(mul, a, step))) for a, b in forms]
    if any(v <= 0 or v + (count - 1) * s <= 0 for v, s in lines):  # a form is v + t s
        return None
    values = []
    for t in range(min(sum(s != 0 for _, s in lines), count - 1) + 1):
        value, rem = divmod(prod([v + t * s for v, s in lines]), divisor)
        if rem:
            return None
        values.append(value)
    total = 0
    for j in range(len(values)):
        total += values[0] * comb(count, j + 1)
        values = [y - x for x, y in zip(values, values[1:])]
    return total


def _dirichlet_moment(exp, columns, size):
    """sum over a of a! [t^a] prod_k L_k(t)^exp[k], in ints, where
    L_k(t) = sum_i columns[k][i] t_i over t_0..t_{size-1} and a! is the
    product of the a_i!."""
    product = {(0,) * size: 1}
    for k, e in enumerate(exp):
        for _ in range(e):
            step = {}
            for a, x in product.items():
                for i, w in enumerate(columns[k]):
                    if w:
                        key = a[:i] + (a[i] + 1,) + a[i + 1:]
                        step[key] = step.get(key, 0) + x * w
            product = step
    return sum(x * prod(map(factorial, a)) for a, x in product.items())


def integrate(integrand, p: Polytope, lattice) -> "Q":
    """Exact integral over p of a `Polynomial`, or of a pair (forms, divisor):
    the product of the int linear forms over the int divisor, as the top
    Weyl term is; the measure on p's span gives a cell of (lattice
    direction) ∩ span volume 1.  Over a simplex of dimension d with vertices
    w_0..w_d, scaled to ints by their common denominator s, a product of D
    linear forms l_k integrates to the Dirichlet moment

        jac * M / (unit * s^D * (D + d)!),  M = sum_a a! [t^a] prod_k L_k(t)^e_k,

    with L_k(t) = sum_i l_k(w_i) t_i, each e_k = 1, and jac / unit the
    simplex's d!-normalized lattice volume from polytopes._simplices
    (Baldoni, Berline, De Loera, Koeppe and Vergne, How to integrate a
    polynomial over a simplex, 2011).  A product of forms takes one moment
    per simplex, never expanded; a polynomial one per monomial x^e, the
    coordinate forms x_k taken e_k times.  The terms are summed in ints over
    the top degree and the common denominator, making one Fraction.  A
    point's fan is (0,), with jac = unit = 1 and M = D! prod_k l_k(w_0): the
    integral over a point is the integrand there, as volume(point) = 1.
    """
    if isinstance(integrand, Polynomial):
        n = integrand.num_vars
        forms = [tuple(int(i == k) for i in range(n)) for k in range(n)]
        den = common_denominator(integrand.terms.values())
        terms = [(exp, int(c * den)) for exp, c in integrand.terms.items()]
    else:
        forms, den = integrand
        n, terms = len(forms[0]) if forms else p.ambient_dim, [((1,) * len(forms), 1)]
    if n != p.ambient_dim:
        raise DomainError("polynomial/polytope dimension mismatch")
    scale, unit, jacs = _simplices(p, lattice)
    # a term of degree e over the top degree D weighs s^(D - e) (D + d)! / (e + d)!
    top, d = max((sum(exp) for exp, _ in terms), default=0), p.dim
    terms = [(exp, c * scale ** (top - sum(exp)) * factorial(top + d) // factorial(sum(exp) + d))
             for exp, c in terms]
    values = [[sum(map(mul, a, w)) for a in forms] for w in p.points]
    columns = [(tuple(zip(*(values[i] for i in simplex))), jac)
               for simplex, jac in zip(p.fan, jacs)]
    moment = sum(jac * c * _dirichlet_moment(exp, cols, d + 1)
                 for cols, jac in columns for exp, c in terms)
    return Q(moment, den * unit * scale ** top * factorial(top + d))
