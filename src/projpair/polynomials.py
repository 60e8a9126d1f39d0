# src/projpair/polynomials.py
"""Exact integer polynomial families behind the anticommutator power identities.

Two families expand powers of fg + gf in the operators fg, gf, fgf, gfg; a
Fibonacci-type family tracks the leading block of those powers in the
two-subspace decomposition; two binomial identities collapse the resulting
norm estimates. Every family is computed both by its recursion and by its
closed form, in exact arbitrary-precision integer arithmetic, so agreement is
coefficient-for-coefficient rather than approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class SelfCheckError(ArithmeticError):
    """An internal cross-check failed. Indicates a bug, never bad user input."""


@dataclass(frozen=True)
class IntPolynomial:
    """Dense univariate polynomial with exact integer coefficients.

    coefficients[k] is the coefficient of x**k. Trailing zeros are trimmed on
    construction, so the zero polynomial has an empty coefficient tuple and
    equality is canonical.
    """

    coefficients: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _trimmed([int(c) for c in self.coefficients]))

    @classmethod
    def _from_ints(cls, coeffs: list[int]) -> "IntPolynomial":
        """Polynomial from a list of Python ints.

        Arithmetic results are ints already, so this skips the int() pass of
        the public constructor; trailing zeros, which cancellation leaves,
        are still trimmed.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "coefficients", _trimmed(coeffs))
        return p

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial._from_ints(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial._from_ints([-c for c in self.coefficients])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial._from_ints([int(other) * c for c in self.coefficients])
        a, b = self.coefficients, other.coefficients
        if not a or not b:
            return IntPolynomial._from_ints([])
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial._from_ints(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by x**k."""
        if not self.coefficients:
            return self
        return IntPolynomial._from_ints([0] * k + list(self.coefficients))

    def __call__(self, x):
        """Horner evaluation; exact for int arguments, float otherwise."""
        acc = 0 if isinstance(x, int) else 0.0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


def _trimmed(coeffs: list) -> tuple:
    """coeffs without its trailing zeros, as a tuple."""
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


X = IntPolynomial((0, 1))
ONE = IntPolynomial((1,))
ZERO = IntPolynomial(())


@dataclass(frozen=True)
class SqrtRingPolynomial:
    """Polynomial in s = sqrt(x) with half-integer coefficients.

    numerators[k] / 2 is the coefficient of s**k. The closed forms of the
    families below live in this ring; they collapse to Z[x] only because every
    odd power of s cancels and every surviving numerator is even.
    to_int_polynomial verifies both facts instead of assuming them.
    """

    numerators: tuple[int, ...]

    def to_int_polynomial(self) -> IntPolynomial:
        nums = self.numerators
        for k in range(1, len(nums), 2):
            if nums[k]:
                raise SelfCheckError(
                    f"odd power s^{k} survives with numerator {nums[k]}; "
                    "closed form does not reduce to a polynomial in x"
                )
        return IntPolynomial._from_ints(_exact_half(nums[0::2]))


def _binom_rows(k: int) -> tuple[list[int], list[int]]:
    """Exact coefficients of (s + 1)**k and (s - 1)**k, index = power of s:
    the second row is the first with the sign of every power s**j flipped
    where k - j is odd."""
    plus = [math.comb(k, j) for j in range(k + 1)]
    minus = [c if (k - j) % 2 == 0 else -c for j, c in enumerate(plus)]
    return plus, minus


def poly_PQ_recursive(n: int) -> tuple[IntPolynomial, IntPolynomial]:
    """The pair (P_n, Q_n) expanding (fg+gf)^n, by the defining recursion.

    P_{n+1} = x(P_n + Q_n) and Q_{n+1} = P_n + x Q_n, starting from P_1 = x,
    Q_1 = 0, run on packed integers (see _unpacked).
    """
    if n < 1:
        raise ValueError(f"family is defined for n >= 1, got {n}")
    # coefficients lie in [0, 2^(n-2)] (P_1 = x aside): n - 1 bits
    width = -(-max(1, n - 1) // 8)
    w = 8 * width
    p, q = 1 << w, 0
    for _ in range(n - 1):
        p, q = (p + q) << w, p + (q << w)
    return _unpacked(p, width), _unpacked(q, width)


def _unpacked(value: int, width: int) -> IntPolynomial:
    """The polynomial whose coefficients are the base-2^(8 width) digits of value.

    The recursions run on p(2^w), w = 8 width, in place of p: evaluation at
    2^w is a ring map, so x^k becomes a shift by w k and each step a few
    big-integer shifts and adds over the whole polynomial. The closed forms
    give every coefficient of the result as non-negative and at most the
    family's value at 1, which is below 2^w, so the digits of value are the
    coefficients, with no carry or borrow between them. The closed forms
    are computed apart and compared by the caller, so a broken bound would
    show as a mismatch, not pass unseen.
    """
    count = -(-value.bit_length() // (8 * width))
    data = value.to_bytes(count * width, "little")
    return IntPolynomial._from_ints(
        [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]
    )


def poly_PQ_closed(n: int) -> tuple[IntPolynomial, IntPolynomial]:
    """The pair (P_n, Q_n) from the closed forms in sqrt(x).

    P_n = (x/2)[(x + sqrt x)^{n-1} + (x - sqrt x)^{n-1}] and
    Q_n = (sqrt x / 2)[(x + sqrt x)^{n-1} - (x - sqrt x)^{n-1}], expanded
    exactly in s = sqrt(x) via (x +- sqrt x)^m = s^m (s +- 1)^m, then converted
    back to Z[x] with parity and divisibility checks.
    """
    if n < 1:
        raise ValueError(f"family is defined for n >= 1, got {n}")
    m = n - 1
    plus, minus = _binom_rows(m)
    p_num = [0] * (m + 2) + [a + b for a, b in zip(plus, minus)]
    q_num = [0] * (m + 1) + [a - b for a, b in zip(plus, minus)]
    p = SqrtRingPolynomial(tuple(p_num)).to_int_polynomial()
    q = SqrtRingPolynomial(tuple(q_num)).to_int_polynomial()
    return p, q


def poly_F(n: int) -> IntPolynomial:
    """Fibonacci-type block polynomial by recursion.

    F_{n+1} = 2x F_n + (x - x^2) F_{n-1}, with F_0 = 1 and F_1 = 2x, run on
    packed integers (see _unpacked).
    """
    if n < 0:
        raise ValueError(f"family is defined for n >= 0, got {n}")
    if n == 0:
        return ONE
    # coefficients lie in [0, 2^n]: n + 1 bits
    width = n // 8 + 1
    w = 8 * width
    prev, cur = 1, 2 << w
    for _ in range(n - 1):
        prev, cur = cur, (cur << (w + 1)) + (prev << w) - (prev << 2 * w)
    return _unpacked(cur, width)


def poly_F_closed(n: int) -> IntPolynomial:
    """Fibonacci-type block polynomial from its closed form.

    F_n = (1/2) x^{n/2} [(sqrt x + 1)^{n+1} - (sqrt x - 1)^{n+1}], expanded in
    s = sqrt(x) and converted back with parity and divisibility checks.
    """
    if n < 0:
        raise ValueError(f"family is defined for n >= 0, got {n}")
    plus, minus = _binom_rows(n + 1)
    num = [0] * n + [a - b for a, b in zip(plus, minus)]
    return SqrtRingPolynomial(tuple(num)).to_int_polynomial()


def _exact_half(values: list[int]) -> list[int]:
    out = []
    for k, v in enumerate(values):
        if v % 2:
            raise SelfCheckError(f"coefficient of power {k} is {v}/2, not an integer")
        out.append(v // 2)
    return out


def poly_AB(N: int) -> tuple[IntPolynomial, IntPolynomial]:
    """Binomial identity pair (A_N, B_N) in the scalar a = ||fg||.

    A_N(a) = sum_{l=1..N} C(2N-1, 2l-1) a^{2l}
           = (a/2)[(1+a)^{2N-1} - (1-a)^{2N-1}],
    B_N(a) = sum_{l=0..N-1} C(2N-1, 2l) a^{2l}
           = (1/2)[(1+a)^{2N-1} + (1-a)^{2N-1}].

    Both sides of each identity are expanded exactly and must coincide; the
    explicit sums are returned.
    """
    if N < 1:
        raise ValueError(f"family is defined for N >= 1, got {N}")
    m = 2 * N - 1
    a_sum = [0] * (2 * N + 1)
    for ell in range(1, N + 1):
        a_sum[2 * ell] = math.comb(m, 2 * ell - 1)
    b_sum = [0] * (2 * N - 1)
    for ell in range(N):
        b_sum[2 * ell] = math.comb(m, 2 * ell)
    A_sum = IntPolynomial._from_ints(a_sum)
    B_sum = IntPolynomial._from_ints(b_sum)

    plus = [math.comb(m, j) for j in range(m + 1)]  # (1+a)^m
    minus = [math.comb(m, j) * (-1) ** j for j in range(m + 1)]  # (1-a)^m
    A_closed = IntPolynomial._from_ints([0] + _exact_half([a - b for a, b in zip(plus, minus)]))
    B_closed = IntPolynomial._from_ints(_exact_half([a + b for a, b in zip(plus, minus)]))
    if A_sum != A_closed or B_sum != B_closed:
        raise SelfCheckError(
            f"binomial sum and closed form disagree at N={N}: "
            f"A {A_sum.coefficients} vs {A_closed.coefficients}, "
            f"B {B_sum.coefficients} vs {B_closed.coefficients}"
        )
    return A_sum, B_sum


def poly_eval_real(p: IntPolynomial, x: float) -> float:
    """Horner evaluation in double precision."""
    return p(float(x))


def coefficient_strings(p: IntPolynomial) -> list[str]:
    """Coefficients as decimal strings, index = power (big-int safe export).

    The zero polynomial exports as ["0"].
    """
    if p.is_zero():
        return ["0"]
    return [str(c) for c in p.coefficients]
