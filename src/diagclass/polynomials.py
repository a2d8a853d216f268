"""Single-variable polynomials with exact integer coefficients.

Coefficients are Python ints (arbitrary precision), stored ascending by
degree with trailing zeros trimmed.  The zero polynomial has an empty
coefficient tuple.
"""

from __future__ import annotations

from typing import Iterable


class Polynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "Polynomial":
        return cls([0] * degree + [coeff])

    # -- basic protocol -----------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __getitem__(self, degree: int) -> int:
        if 0 <= degree < len(self.coeffs):
            return self.coeffs[degree]
        return 0

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if d == 0:
                parts.append(str(c))
            else:
                var = "t" if d == 1 else f"t^{d}"
                if c == 1:
                    parts.append(var)
                elif c == -1:
                    parts.append(f"-{var}")
                else:
                    parts.append(f"{c}*{var}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, int):
            return Polynomial((other,))
        if isinstance(other, Polynomial):
            return other
        raise TypeError(f"cannot combine Polynomial with {type(other)!r}")

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(self[d] + other[d] for d in range(n))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if not self or not other:
            return Polynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result


class InexactDivisionError(ArithmeticError):
    """Polynomial division left a nonzero remainder."""


def poly_divide_exact(p: Polynomial, q: Polynomial) -> Polynomial:
    """Divide p by q, requiring a zero remainder.

    Used where an exact algebraic identity guarantees divisibility; a
    nonzero remainder therefore signals an inconsistency upstream.
    """
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(p.coeffs)
    qd = q.degree
    lead = q.coeffs[-1]
    quot = [0] * max(len(rem) - qd, 0)
    for d in range(len(rem) - 1, qd - 1, -1):
        c = rem[d]
        if c == 0:
            continue
        if c % lead != 0:
            raise InexactDivisionError(f"{p} is not divisible by {q}")
        f = c // lead
        quot[d - qd] = f
        for j in range(qd + 1):
            rem[d - qd + j] -= f * q.coeffs[j]
    if any(rem):
        raise InexactDivisionError(f"{p} is not divisible by {q}")
    return Polynomial(quot)


def series_expand_product(p: Polynomial, k: int, r: int) -> tuple[int, ...]:
    """First r+1 coefficients of p(t) * (1-t)^k, exactly."""
    if r < 0:
        raise ValueError("truncation order must be nonnegative")
    prod = p * (Polynomial((1, -1)) ** k)
    return tuple(prod[d] for d in range(r + 1))

