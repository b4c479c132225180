import pytest

from recnum.base import (
    IntegerWidthError,
    PreconditionError,
    RecurrenceSpec,
    dominant_root,
    make_context,
    strengthened_initials,
    validate_spec,
)

PHI = (1 + 5**0.5) / 2


def test_strengthened_initials_fibonacci():
    assert strengthened_initials((1, 1)) == (1, 2)


def test_strengthened_initials_general():
    # G_0 = 1, G_1 = a_1 G_0 + 1, G_2 = a_1 G_1 + a_2 G_0 + 1
    assert strengthened_initials((3, 2, 1)) == (1, 4, 15)


def test_validate_accepts_zeckendorf():
    spec = RecurrenceSpec((1, 1), (1, 2))
    assert validate_spec(spec).ok
    # order 1: binary is a base
    assert validate_spec(RecurrenceSpec((2,), (1,))).ok
    assert make_context((2,)).terms_upto(20) == [1, 2, 4, 8, 16]


def test_validate_rejects_nonincreasing():
    spec = RecurrenceSpec((1, 1), (2, 1))
    report = validate_spec(spec)
    assert not report.ok and report.violations
    # G_n = 1 for every n passes every other condition; terms_upto would
    # never return on it
    report = validate_spec(RecurrenceSpec((1,), (1,)))
    assert report.violations == ("a_1 = 1 with d = 1 gives G_n = 1 for every n",)
    with pytest.raises(PreconditionError):
        make_context((1,))


def test_validate_rejects_bad_lexicographic_tail():
    # a_d = 0 violates the trailing-coefficient condition
    spec = RecurrenceSpec((2, 0), strengthened_initials((2, 0)))
    assert not validate_spec(spec).ok


def test_dominant_root_fibonacci():
    spec = RecurrenceSpec((1, 1), (1, 2))
    assert dominant_root(spec) == pytest.approx(PHI, abs=1e-12)


def test_dominant_root_in_unit_window():
    for coeffs in [(3, 1), (5, 2, 1), (7, 7, 7)]:
        spec = RecurrenceSpec(coeffs, strengthened_initials(coeffs))
        alpha = dominant_root(spec)
        assert coeffs[0] <= alpha < coeffs[0] + 1


def test_dominant_root_rejects_bracket_without_sign_change():
    # X^2 - 1 vanishes at the upper bracket end a_1 + 1 = 1; a raised error,
    # unlike an assert, survives python -O
    with pytest.raises(PreconditionError):
        dominant_root(RecurrenceSpec((0, 1), (1, 2)))


def test_terms_satisfy_recurrence():
    ctx = make_context((2, 1, 1))
    for n in range(3, 20):
        expected = 2 * ctx.term(n - 1) + ctx.term(n - 2) + ctx.term(n - 3)
        assert ctx.term(n) == expected


def test_terms_upto():
    ctx = make_context((1, 1))
    terms = ctx.terms_upto(100)
    assert terms == [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]


def _terms_upto_linear(ctx, limit):
    # the definition: G_0..G_m with G_m <= limit < G_{m+1}, by a scan
    n = 0
    while ctx.term(n) <= limit:
        n += 1
    return [ctx.term(k) for k in range(n)]


@pytest.mark.parametrize("coeffs", [(1, 1), (2,), (3, 2, 1), (100, 1)])
def test_terms_upto_matches_the_linear_scan(coeffs):
    # limits at, just below and just above each term, below G_1 and 0, on a
    # fresh cache and on a warm one, in rising and in falling order
    terms = _terms_upto_linear(make_context(coeffs), 10**15)
    limits = [0, terms[0] - 1, terms[1] - 1]
    limits += [g + d for g in terms for d in (-1, 0, 1)]
    for order in (limits, limits[::-1]):
        warm = make_context(coeffs)
        for limit in order:
            want = _terms_upto_linear(make_context(coeffs), limit)
            assert make_context(coeffs).terms_upto(limit) == want, limit
            assert warm.terms_upto(limit) == want, limit


def test_terms_upto_keeps_the_width_guard():
    # a limit past the 128-bit width needs a term that does not fit
    with pytest.raises(IntegerWidthError):
        make_context((100, 1)).terms_upto(1 << 130)


def test_integer_width_guard():
    ctx = make_context((100, 1))
    with pytest.raises(IntegerWidthError):
        ctx.term(100)


def test_make_context_rejects_invalid():
    with pytest.raises(PreconditionError):
        make_context((0, 1))
