import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from projpair.polynomials import (
    ONE,
    X,
    ZERO,
    IntPolynomial,
    SelfCheckError,
    SqrtRingPolynomial,
    coefficient_strings,
    poly_AB,
    poly_eval_real,
    poly_F,
    poly_F_closed,
    poly_PQ_closed,
    poly_PQ_recursive,
)


def poly(*coeffs):
    return IntPolynomial(tuple(coeffs))


# The recursions in IntPolynomial ring arithmetic: the reference the packed
# integer recursions of poly_PQ_recursive and poly_F must match.


def reference_pq(n):
    p, q = X, ZERO
    for _ in range(n - 1):
        p, q = (p + q).shift(1), p + q.shift(1)
    return p, q


def reference_f(n):
    prev, cur = ONE, 2 * X
    if n == 0:
        return prev
    weight = X - X * X
    for _ in range(n - 1):
        prev, cur = cur, 2 * cur.shift(1) + weight * prev
    return cur


# --- IntPolynomial basics -------------------------------------------------------


def test_trailing_zeros_trimmed():
    assert poly(1, 2, 0, 0) == poly(1, 2)
    assert poly(0, 0).is_zero()
    assert poly().degree == -1


def test_arithmetic_trims_what_cancels():
    difference = X - X
    assert difference == ZERO and hash(difference) == hash(ZERO)
    assert difference.coefficients == () and difference.degree == -1
    assert (X + ONE) * (X - ONE) == poly(-1, 0, 1)
    assert (X * X + X) - X * X == X
    assert (X + ONE) * (X - ONE) - X * X + ONE == ZERO
    assert 0 * (X + ONE) == ZERO
    for p in (difference, (X + ONE) * (X - ONE), -X, X.shift(2), 3 * X, True * X):
        assert all(type(c) is int for c in p.coefficients)


def test_shift():
    assert poly(1, 2).shift(2) == poly(0, 0, 1, 2)
    assert poly().shift(3).is_zero()


@given(
    p=st.lists(st.integers(-999, 999), max_size=8),
    q=st.lists(st.integers(-999, 999), max_size=8),
    v=st.integers(-20, 20),
)
def test_ring_ops_agree_with_evaluation(p, q, v):
    fp, fq = IntPolynomial(tuple(p)), IntPolynomial(tuple(q))
    assert (fp + fq)(v) == fp(v) + fq(v)
    assert (fp - fq)(v) == fp(v) - fq(v)
    assert (fp * fq)(v) == fp(v) * fq(v)


# --- P_n, Q_n --------------------------------------------------------------------


def test_pq_initial_data():
    p1, q1 = poly_PQ_recursive(1)
    assert p1 == poly(0, 1)  # x
    assert q1.is_zero()


@pytest.mark.parametrize(
    "n, p_expected, q_expected",
    [
        (2, poly(0, 0, 1), poly(0, 1)),  # P2 = x^2, Q2 = x
        (3, poly(0, 0, 1, 1), poly(0, 0, 2)),  # one more recursion step by hand
        (4, poly(0, 0, 0, 3, 1), poly(0, 0, 1, 3)),  # P4 = x^4 + 3x^3, Q4 = x^2 + 3x^3
    ],
)
def test_pq_hand_values(n, p_expected, q_expected):
    assert poly_PQ_recursive(n) == (p_expected, q_expected)
    assert poly_PQ_closed(n) == (p_expected, q_expected)


def test_pq_rejects_n_zero():
    with pytest.raises(ValueError):
        poly_PQ_recursive(0)
    with pytest.raises(ValueError):
        poly_PQ_closed(0)


def test_pq_recursive_equals_closed_up_to_200():
    for n in range(1, 201):
        assert poly_PQ_recursive(n) == poly_PQ_closed(n)


def test_pq_recursive_equals_ring_recursion_up_to_200():
    for n in range(1, 201):
        p, q = poly_PQ_recursive(n)
        ref_p, ref_q = reference_pq(n)
        assert p.coefficients == ref_p.coefficients and q.coefficients == ref_q.coefficients
        assert all(type(c) is int for c in p.coefficients + q.coefficients)


def test_q1_is_the_zero_polynomial():
    p, q = poly_PQ_recursive(1)
    assert q.coefficients == () and q == ZERO and coefficient_strings(q) == ["0"]
    assert p.coefficients == (0, 1)


# P_n and Q_n are packed with 8 ceil((n-1)/8) bits a coefficient, which is
# n - 1 bits exactly when n - 1 is a multiple of 8; F_n with 8 (n // 8 + 1)
# bits, n + 1 exactly when n + 1 is.
@pytest.mark.parametrize("n", [2, 9, 10, 17, 65, 193, 201, 257])
def test_pq_packed_at_tightest_widths(n):
    p, q = poly_PQ_recursive(n)
    assert (p, q) == reference_pq(n)
    assert all(0 <= c <= 2 ** (n - 2) for c in p.coefficients + q.coefficients)


@pytest.mark.parametrize("n", [7, 8, 15, 63, 191, 199, 255])
def test_f_packed_at_tightest_widths(n):
    f = poly_F(n)
    assert f == reference_f(n)
    assert all(0 <= c <= 2**n for c in f.coefficients)


def test_packed_recursions_equal_closed_forms_at_500():
    assert poly_PQ_recursive(500) == poly_PQ_closed(500)
    assert poly_F(500) == poly_F_closed(500)


def test_pq_even_index_binomial_sums():
    # independent oracle: P_2N = sum_l C(2N-1, 2l-1) x^(N+l),
    #                     Q_2N = sum_l C(2N-1, 2l)   x^(N+l)
    for N in range(1, 51):
        p_coeffs = [0] * (2 * N + 1)
        for ell in range(1, N + 1):
            p_coeffs[N + ell] = math.comb(2 * N - 1, 2 * ell - 1)
        q_coeffs = [0] * (2 * N)
        for ell in range(N):
            q_coeffs[N + ell] = math.comb(2 * N - 1, 2 * ell)
        p, q = poly_PQ_recursive(2 * N)
        assert p == IntPolynomial(tuple(p_coeffs))
        assert q == IntPolynomial(tuple(q_coeffs))


def test_pq_degree_and_positivity_laws():
    for n in range(1, 61):
        p, q = poly_PQ_recursive(n)
        assert p.degree == n
        if n >= 2:
            assert q.degree == n - 1
        assert all(c >= 0 for c in p.coefficients)
        assert all(c >= 0 for c in q.coefficients)


# --- F_n ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [
        (0, poly(1)),
        (1, poly(0, 2)),  # 2x
        (2, poly(0, 1, 3)),  # 3x^2 + x
        (3, poly(0, 0, 4, 4)),  # 4x^3 + 4x^2 by hand iteration
    ],
)
def test_f_hand_values(n, expected):
    assert poly_F(n) == expected
    assert poly_F_closed(n) == expected


def test_f_rejects_negative():
    with pytest.raises(ValueError):
        poly_F(-1)
    with pytest.raises(ValueError):
        poly_F_closed(-1)


def test_f_recursive_equals_closed_up_to_200():
    for n in range(201):
        assert poly_F(n) == poly_F_closed(n)


def test_f_recursive_equals_ring_recursion_up_to_200():
    for n in range(201):
        f = poly_F(n)
        assert f.coefficients == reference_f(n).coefficients
        assert all(type(c) is int for c in f.coefficients)


def test_f_degree_and_positivity():
    for n in range(61):
        f = poly_F(n)
        assert f.degree == n
        assert all(c >= 0 for c in f.coefficients)


# --- A_N, B_N ------------------------------------------------------------------------


def test_ab_hand_values():
    a1, b1 = poly_AB(1)
    assert a1 == poly(0, 0, 1)  # a^2
    assert b1 == poly(1)
    a2, b2 = poly_AB(2)
    assert a2 == poly(0, 0, 3, 0, 1)  # 3a^2 + a^4
    assert b2 == poly(1, 0, 3)  # 1 + 3a^2


def test_ab_rejects_n_zero():
    with pytest.raises(ValueError):
        poly_AB(0)


def test_ab_both_forms_agree_up_to_100():
    # poly_AB raises if its two internal forms diverge
    for N in range(1, 101):
        a, b = poly_AB(N)
        assert a.degree == 2 * N
        assert b.degree == 2 * N - 2


def test_ab_scalar_consistency():
    for N in range(1, 31):
        a_poly, _ = poly_AB(N)
        for a in (0.1, 0.5, 0.9):
            closed = (a / 2.0) * ((1 + a) ** (2 * N - 1) - (1 - a) ** (2 * N - 1))
            assert poly_eval_real(a_poly, a) == pytest.approx(closed, rel=1e-10)


# --- sqrt-ring conversion guards ---------------------------------------------------


def test_sqrt_ring_rejects_surviving_odd_power():
    with pytest.raises(SelfCheckError, match="odd power"):
        SqrtRingPolynomial((0, 2)).to_int_polynomial()


def test_sqrt_ring_rejects_odd_numerator():
    with pytest.raises(SelfCheckError, match="not an integer"):
        SqrtRingPolynomial((3,)).to_int_polynomial()


def test_sqrt_ring_converts_even_halves():
    assert SqrtRingPolynomial((2, 0, 6)).to_int_polynomial() == poly(1, 3)


# --- scalar evaluation and export ---------------------------------------------------


def test_eval_real_hand_values():
    assert poly_eval_real(poly_F(2), 1.0) == pytest.approx(4.0, abs=0)
    assert poly_eval_real(poly(), 123.0) == 0.0
    p4 = poly_PQ_recursive(4)[0]
    assert poly_eval_real(p4, 0.5) == pytest.approx(0.4375, abs=0)


def test_coefficient_strings():
    assert coefficient_strings(poly()) == ["0"]
    assert coefficient_strings(poly_F(2)) == ["0", "1", "3"]
    a40, _ = poly_AB(40)
    strings = coefficient_strings(a40)
    # strings must round-trip the exact big integers
    assert [int(s) for s in strings] == list(a40.coefficients)
    assert max(len(s) for s in strings) > 19  # beyond 64-bit territory
