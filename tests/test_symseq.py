"""Exact sequence algebra against high-precision numeric references.

mpmath plays the oracle for every closed-form sum; the module under test
must agree within its own certified error bound.
"""

from fractions import Fraction

import mpmath
import pytest

from seqcert.symseq import (
    DIVERGENT,
    SUMMABLE,
    SymSeq,
    SymTerm,
    classify,
    classify_term,
    exact_sqrt,
    tail_sum,
)

mpmath.mp.dps = 40


def mp_tail(fn, start):
    return float(mpmath.nsum(fn, [start, mpmath.inf]))


def test_exact_sqrt_perfect_squares():
    assert exact_sqrt(Fraction(1, 4)) == (Fraction(1, 2), True)
    assert exact_sqrt(Fraction(9, 16)) == (Fraction(3, 4), True)
    assert exact_sqrt(Fraction(0)) == (Fraction(0), True)


def test_exact_sqrt_marks_non_squares_inexact():
    root, exact = exact_sqrt(Fraction(1, 2))
    assert not exact
    assert root == pytest.approx(0.5**0.5)
    with pytest.raises(ValueError):
        exact_sqrt(Fraction(-1, 4))


def test_term_value_matches_direct_formula():
    t = SymTerm(Fraction(3, 2), Fraction(1, 3), Fraction(0))
    for n in (1, 2, 7, 30):
        assert t.value_at(n) == pytest.approx(1.5 * (1 / 3) ** n, rel=1e-12)


def test_term_value_underflow_is_zero_not_error():
    t = SymTerm(Fraction(1), Fraction(1, 2), Fraction(0))
    assert t.value_at(100_000) == 0.0


def test_negative_ratio_alternates_sign():
    t = SymTerm(Fraction(1), Fraction(-1, 2), Fraction(0))
    assert t.value_at(1) < 0 < t.value_at(2)


# tail_sum oracle checks ----------------------------------------------------


def check_tail_sum(seq, start, reference):
    value, err, _ = tail_sum(seq, start, 1e-12)
    assert abs(value - reference) <= err + 1e-12


def test_geometric_tail_sum():
    seq = SymSeq.term(Fraction(3, 4), Fraction(1, 2), 0)
    check_tail_sum(seq, 1, mp_tail(lambda n: 0.75 * mpmath.mpf(0.5) ** n, 1))
    check_tail_sum(seq, 6, mp_tail(lambda n: 0.75 * mpmath.mpf(0.5) ** n, 6))


def test_geometric_over_n_is_polylog():
    # sum r^n / n from n=1 is Li_1(r) = -log(1-r)
    seq = SymSeq.term(Fraction(1), Fraction(1, 2), Fraction(1))
    check_tail_sum(seq, 1, float(-mpmath.log(mpmath.mpf(1) / 2)))


def test_geometric_over_n_squared_is_dilog():
    seq = SymSeq.term(Fraction(1), Fraction(1, 2), Fraction(2))
    check_tail_sum(seq, 1, float(mpmath.polylog(2, mpmath.mpf(1) / 2)))


def test_mixed_sum_of_terms():
    seq = SymSeq.term(Fraction(1), Fraction(1, 3), 0) + SymSeq.term(
        Fraction(-2), Fraction(1, 4), Fraction(1)
    )
    ref = mp_tail(lambda n: mpmath.mpf(1) / 3**n - 2 * mpmath.mpf(0.25) ** n / n, 2)
    check_tail_sum(seq, 2, ref)


def test_harmonic_tail_diverges():
    with pytest.raises(ValueError):
        tail_sum(SymSeq.term(Fraction(1), 1, 1), 1, 1e-10)


def test_constant_tail_diverges():
    with pytest.raises(ValueError):
        tail_sum(SymSeq.term(Fraction(1), 1, 0), 1, 1e-10)


def test_alternating_harmonic_not_absolutely_summable():
    seq = SymSeq.term(Fraction(1), Fraction(-1), Fraction(1))
    assert classify(seq) != SUMMABLE
    with pytest.raises(ValueError):
        tail_sum(seq, 1, 1e-10)


# algebra --------------------------------------------------------------------


def test_add_cancels_exactly():
    a = SymSeq.term(Fraction(1, 2), Fraction(1, 2), 0)
    b = SymSeq.term(Fraction(-1, 2), Fraction(1, 2), 0)
    assert (a + b).is_zero


def test_product_multiplies_ratios():
    a = SymSeq.term(Fraction(2), Fraction(1, 2), 0)
    b = SymSeq.term(Fraction(3), Fraction(1, 3), 0)
    prod = a * b
    for n in (1, 2, 5):
        assert prod.value_at(n) == pytest.approx(6 * (1 / 6) ** n, rel=1e-12)


def test_sqrt_of_even_geometric_is_exact():
    seq = SymSeq.term(Fraction(1), Fraction(1, 4), 0)
    root = seq.sqrt()
    assert root.exact
    for n in (1, 3, 8):
        assert root.value_at(n) == pytest.approx(0.5**n, rel=1e-12)


def test_reciprocal_inverts_pointwise():
    seq = SymSeq.term(Fraction(1), Fraction(1, 2), 0)
    inv = seq.reciprocal()
    for n in (1, 2, 6):
        assert inv.value_at(n) == pytest.approx(2.0**n, rel=1e-12)


def test_eventual_sign_dominant_term():
    seq = SymSeq.term(Fraction(1), Fraction(1, 2), 0) + SymSeq.term(
        Fraction(-1), Fraction(1, 4), 0
    )
    sign, rank = seq.eventual_sign()
    assert sign == 1
    # the claim must hold at and beyond the certified rank
    for n in range(rank, rank + 20):
        assert seq.value_at(n) > 0


def test_eventual_sign_negative():
    seq = SymSeq.term(Fraction(-3), 1, 1) + SymSeq.term(Fraction(1), Fraction(1, 2), 0)
    sign, rank = seq.eventual_sign()
    assert sign == -1
    for n in range(rank, rank + 20):
        assert seq.value_at(n) < 0


def test_eventual_sign_of_zero_sequence():
    sign, _ = SymSeq.zero().eventual_sign()
    assert sign == 0


def test_inexact_sqrt_clears_the_exact_flag():
    seq = SymSeq.term(Fraction(1), Fraction(1, 2), 0)  # ratio not a square
    root = seq.sqrt()
    assert not root.exact
    assert not (root + SymSeq.zero()).exact


def test_term_beyond_float_range_builds_and_raises_only_when_valued():
    # float images are taken on first use, so an out-of-range exact
    # coefficient still builds, merges and classifies as before
    big = SymTerm(Fraction(10) ** 400, Fraction(1, 2), Fraction(0))
    seq = SymSeq((big,))
    assert classify(seq) == SUMMABLE
    with pytest.raises(OverflowError):
        big.value_at(3)
    assert SymTerm(Fraction(0), Fraction(10) ** 400, Fraction(0)).value_at(3) == 0.0


def test_classification_reads_ratio_floats_apart_from_the_coefficient():
    # the ratio and exponent floats are kept per term apart from the value
    # floats: an out-of-range coefficient still classifies, and an
    # out-of-range ratio raises OverflowError at every classification
    big_coef = SymTerm(Fraction(10) ** 400, Fraction(1), Fraction(2))
    assert classify_term(big_coef) == SUMMABLE
    with pytest.raises(OverflowError):
        big_coef.value_at(1)
    assert classify_term(big_coef) == SUMMABLE
    big_ratio = SymTerm(Fraction(1), Fraction(10) ** 400, Fraction(0))
    for _ in range(2):
        with pytest.raises(OverflowError):
            classify_term(big_ratio)
    assert classify_term(SymTerm(Fraction(0), Fraction(10) ** 400, Fraction(0))) == SUMMABLE
    assert classify_term(SymTerm(1.0, -1.0, Fraction(1, 2))) == "not_absolute"
    assert classify_term(SymTerm(1.0, 1.0, Fraction(1))) == DIVERGENT


def test_ratios_that_round_to_one_double_do_not_merge():
    # r3 is the double nearest the exact product r1*r2, so a float-keyed
    # merge would cancel the difference below to an "exact" zero
    r1, r2 = 0.207491395289921, 0.7779469895497861
    r3 = r1 * r2
    assert Fraction(r1) * Fraction(r2) != Fraction(r3)
    assert float(Fraction(r1) * Fraction(r2)) == r3
    diff = SymSeq.term(1.0, r1, 0) * SymSeq.term(1.0, r2, 0) - SymSeq.term(1.0, r3, 0)
    assert diff.exact and len(diff.terms) == 2 and not diff.is_zero
    # equal values merge whether a ratio is a float or a Fraction
    same = SymSeq((SymTerm(Fraction(1), 0.5, Fraction(0)),)) + SymSeq.term(2.0, 0.5, 0)
    assert len(same.terms) == 1 and same.terms[0].coef == 3
