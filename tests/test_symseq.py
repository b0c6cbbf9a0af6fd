"""Exact sequence algebra against high-precision numeric references.

mpmath plays the oracle for every closed-form sum; the module under test
must agree within its own certified error bound.
"""

import math
import operator
import struct
import sys
import threading
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from seqcert.errors import NoMajorant
from seqcert.symseq import (
    DIVERGENT,
    SUMMABLE,
    Dyadic,
    SymSeq,
    SymTerm,
    classify,
    classify_term,
    exact_sqrt,
    point_form,
    tail_sum,
    tail_sums,
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


def test_a_geometric_tail_too_slow_to_certify_raises_no_majorant():
    # r = 1 - 1e-13 needs a cut-off past 2**40 terms
    slow = SymSeq.term(1.0, 1 - 1e-13, 0)
    assert classify(slow) == SUMMABLE
    with pytest.raises(NoMajorant):
        tail_sum(slow, 1, 1e-12)


# Dyadic numbers -------------------------------------------------------------

DOUBLES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308),
    st.floats(min_value=1e299, max_value=1e301),
    st.floats(min_value=-1e301, max_value=-1e299),
    st.floats(min_value=1e-301, max_value=1e-299),
    st.floats(min_value=1 - 1e-7, max_value=1 + 1e-7),
    st.floats(min_value=-1 - 1e-7, max_value=-1 + 1e-7),
)


def bits(x: float) -> str:
    return struct.pack("<d", x).hex()


def canonical(d: Dyadic) -> bool:
    """An odd mantissa, or the one zero."""
    return d.m % 2 == 1 or (d.m, d.e) == (0, 0)


def image(value) -> str:
    """The float image of an exact value, bit for bit, or the exception."""
    try:
        return bits(float(value))
    except OverflowError:
        return "OverflowError"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(DOUBLES, DOUBLES)
def test_dyadics_agree_with_fractions_on_doubles(x, y):
    dx, dy = Dyadic.from_float(x), Dyadic.from_float(y)
    fx, fy = Fraction(x), Fraction(y)
    assert canonical(dx)
    assert bits(float(dx)) == bits(float(fx))
    assert dx == fx and fx == dx and dx == x and x == dx
    assert hash(dx) == hash(fx) == hash(x)
    assert dx.as_integer_ratio() == fx.as_integer_ratio()
    assert Fraction(dx) == fx and type(Fraction(dx)) is Fraction
    for op in (operator.eq, operator.lt, operator.le, operator.gt, operator.ge):
        want = op(fx, fy)
        assert op(dx, dy) == op(dx, fy) == op(fx, dy) == op(dx, y) == op(x, dy) == want
    for op in (operator.mul, operator.add, operator.sub):
        exact = op(dx, dy)
        assert type(exact) is Dyadic and canonical(exact) and exact == op(fx, fy)
        assert hash(exact) == hash(op(fx, fy))
        assert image(exact) == image(op(fx, fy))
        # mixed with a Fraction the result is one, with a float a float
        assert type(op(dx, fy)) is Fraction and op(dx, fy) == op(fx, fy)
        assert type(op(fx, dy)) is Fraction and op(fx, dy) == op(fx, fy)
        assert bits(op(dx, y)) == bits(op(float(fx), y))
        assert bits(op(x, dy)) == bits(op(x, float(fy)))


def test_dyadics_compare_and_hash_with_ints_and_infinities():
    assert Dyadic.from_float(4.0) == 4 and hash(Dyadic.from_float(4.0)) == hash(4)
    assert Dyadic.from_float(-0.5) < 0 < Dyadic.from_float(0.5) <= 1
    assert Dyadic.from_float(-2.0 ** 70) == -(2**70)
    huge = Dyadic(1, 5000)
    assert hash(huge) == hash(Fraction(2**5000)) and huge > 1e308
    assert Dyadic(3, -5000) < math.inf and Dyadic(3, -5000) > -math.inf
    assert not Dyadic(3, -5000) == math.nan and Dyadic(1, 0) != math.nan


def test_a_reciprocal_that_is_not_dyadic_falls_back_to_fraction():
    for k in (-3, 0, 5):
        seq = SymSeq.term(3 * 2.0**k, 0.5, 0)
        inv = seq.reciprocal()
        (t,) = inv.terms
        assert type(t.coef) is Fraction and t.coef == Fraction(1, 3) / Fraction(2) ** k
        assert type(t.ratio) is Dyadic and t.ratio == 2
        assert inv.exact
        for n in (1, 4, 9):
            assert inv.value_at(n) == pytest.approx(2.0**n / (3 * 2.0**k), rel=1e-14)
    # a mantissa of +-1 keeps the reciprocal dyadic
    (t,) = SymSeq.term(-0.25, 0.5, 0).reciprocal().terms
    assert type(t.coef) is Dyadic and t.coef == -4


def test_an_inexact_dyadic_sqrt_matches_the_fraction_path():
    for x in (2.0, 0.5, 8.0, 3.0 * 2.0**-10):
        root, exact = exact_sqrt(Dyadic.from_float(x))
        assert (root, exact) == exact_sqrt(Fraction(x))
        assert not exact and type(root) is float and root == math.sqrt(x)
    for x in (0.0, 0.25, 9.0, 9.0 * 2.0**-40):
        root, exact = exact_sqrt(Dyadic.from_float(x))
        assert exact and type(root) is Dyadic and root == exact_sqrt(Fraction(x))[0]
    with pytest.raises(ValueError):
        exact_sqrt(Dyadic.from_float(-0.25))


def test_a_fraction_term_and_an_equal_dyadic_term_merge_into_one():
    fraction_held = SymTerm(Fraction(1, 3), Fraction(1, 2), Fraction(1))
    dyadic_held = SymSeq.term(0.75, 0.5, 1).terms[0]
    assert type(dyadic_held.ratio) is Dyadic and type(dyadic_held.npow) is Dyadic
    merged = SymSeq((fraction_held, dyadic_held))
    (t,) = merged.terms
    assert merged.exact and t.coef == Fraction(13, 12) and type(t.coef) is Fraction
    cancelled = SymSeq((SymTerm(Fraction(-3, 4), Fraction(1, 2), Fraction(1)), dyadic_held))
    assert cancelled.exact and cancelled.is_zero and not cancelled.terms


def test_sequences_compare_and_hash_across_the_two_representations():
    as_fractions = SymSeq(
        (
            SymTerm(Fraction(3, 4), Fraction(1, 2), Fraction(0)),
            SymTerm(Fraction(-5), Fraction(1, 8), Fraction(2)),
        )
    )
    as_dyadics = SymSeq.term(0.75, 0.5, 0) + SymSeq.term(-5, 0.125, 2)
    assert {type(t.coef) for t in as_dyadics.terms} == {Dyadic}
    assert as_fractions == as_dyadics and hash(as_fractions) == hash(as_dyadics)
    assert as_fractions != SymSeq.term(0.75, 0.5, 0)


def test_an_image_beyond_the_float_range_raises_overflow_error():
    # (2**54 - 1) * 2**970 lies halfway between the largest double and
    # 2**1024, and rounds to even: up, out of the range
    for value in (
        Dyadic(1, 1024),
        Dyadic(-(2**60 + 1), 1000),
        Dyadic(3**700, -1),
        Dyadic(2**54 - 1, 970),
    ):
        with pytest.raises(OverflowError):
            float(value)
        with pytest.raises(OverflowError):
            float(Fraction(value))
        with pytest.raises(OverflowError):
            SymTerm(value, Dyadic(1, -1), Dyadic(0, 0)).value_at(3)
    # nearer the largest double than 2**1024, it rounds down, as the Fraction does
    top = Dyadic(2**55 - 5, 969)
    assert float(top) == float(Fraction(top)) == 1.7976931348623157e308
    assert float(-top) == float(-Fraction(top)) == -1.7976931348623157e308


# SymTerm's public contract ---------------------------------------------------


def test_a_term_builds_by_position_and_by_keyword():
    by_position = SymTerm(Dyadic(3, -2), Fraction(1, 3), 0.5)
    by_keyword = SymTerm(npow=0.5, coef=Dyadic(3, -2), ratio=Fraction(1, 3))
    assert by_position == by_keyword
    assert (by_keyword.coef, by_keyword.ratio, by_keyword.npow) == (Dyadic(3, -2), Fraction(1, 3), 0.5)
    assert by_keyword.is_exact  # the coefficient and the ratio are exact
    match by_position:
        case SymTerm(c, r, s):
            assert (c, r, s) == (Dyadic(3, -2), Fraction(1, 3), 0.5)


def test_terms_compare_and_hash_alike_across_the_holders_of_one_value():
    holders = [
        SymTerm(Dyadic(3, -2), Dyadic(1, -1), Dyadic(0, 0)),
        SymTerm(Fraction(3, 4), Fraction(1, 2), Fraction(0)),
        SymTerm(0.75, 0.5, 0.0),
    ]
    for a in holders:
        for b in holders:
            assert a == b and hash(a) == hash(b)
    assert [t.is_exact for t in holders] == [True, True, False]
    assert holders[0] != SymTerm(Dyadic(3, -2), Dyadic(1, -1), Dyadic(1, 0))
    assert holders[0] != (Dyadic(3, -2), Dyadic(1, -1), Dyadic(0, 0))
    # and they merge into one term, inexact for the float among them
    merged = SymSeq(holders)
    assert merged.terms == (SymTerm(2.25, 0.5, 0.0),) and not merged.exact


def test_a_term_reprs_as_the_dataclass_did():
    assert repr(SymTerm(Dyadic(3, -2), Fraction(1, 2), 0.0)) == (
        "SymTerm(coef=Dyadic(3, -2), ratio=Fraction(1, 2), npow=0.0)"
    )
    assert repr(SymTerm(coef=-0.0, ratio=Dyadic(-1, 0), npow=Fraction(3, 2))) == (
        "SymTerm(coef=-0.0, ratio=Dyadic(-1, 0), npow=Fraction(3, 2))"
    )


def test_threads_filling_one_terms_float_images_read_what_one_thread_reads():
    # the images fill their slots with no lock: threads that race to fill
    # those of the same fresh terms, and to sum the tails of the same fresh
    # sequences, get what one thread alone gets
    def fresh():
        return [
            SymSeq.term(Fraction(k, 7) + 1, 0.5 + k / 1000, k % 3) + SymSeq.term(-k, -0.9, 2)
            for k in range(1, 120)
        ]

    def read(seqs):
        return repr([
            ([t._floats for t in s.terms], [t._shape for t in s.terms], tail_sums(s, 1e-12)(1))
            for s in seqs
        ])

    want = read(fresh())
    workers = 4  # more threads than a CI runner's two cores
    for _ in range(5):
        seqs, got = fresh(), [None] * workers
        barrier = threading.Barrier(workers, timeout=30)

        def work(i):
            barrier.wait()
            got[i] = read(seqs)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * workers


def test_coordinates_are_read_from_a_canonical_form_only():
    built = SymSeq.term(1, 0.5, 0)
    with pytest.raises(ValueError, match="point_form"):
        built.coordinate(3)
    with pytest.raises(ValueError, match="point_form"):
        built.column(1, 3)
    form = point_form([("geometric", 1.0, 0.5)])
    assert form == built
    assert form.coordinate(3) == 0.125 and form.column(1, 3) == [0.5, 0.25, 0.125]
