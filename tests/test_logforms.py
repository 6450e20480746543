"""Exact linear forms in logarithms of primes."""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st
from mpmath import mp
import pytest

import monoheight.logforms
from monoheight import (
    BudgetError, CertifiedReal, InputError, IntMatrix, LogLinear, PointGm, Quad, canonical_height_closed, weil_height_of_point,
)
from monoheight.heights import truncated_estimates
from monoheight.logforms import _enclosure, max_with_zero
from monoheight.points import _place_heights
from monoheight.precision import PAD_BITS, fraction_to_mpf, log_enclosure, sqrt_enclosure

from conftest import random_matrix, random_point

SQRT5 = Quad(0, 1, 5)


def test_zero_iff_all_coefficients_zero():
    assert LogLinear({}).is_zero
    assert LogLinear({2: 0, 3: Fraction(0)}).is_zero
    assert not LogLinear({2: 1}).is_zero
    # log 2 + log 3 - log 6-free: no relation exists among distinct primes
    assert not LogLinear({2: 1, 3: 1, 5: -1}).is_zero


def test_sign_decisions():
    # log 6 > log 5 by a whisker of 0.18; 2 log 3 > 3 log 2 (9 > 8)
    assert LogLinear({2: 1, 3: 1, 5: -1}).sign() == 1
    assert LogLinear({3: 2, 2: -3}).sign() == 1
    assert LogLinear({2: 3, 3: -2}).sign() == -1
    assert LogLinear({}).sign() == 0
    # a nonzero form over non-prime bases still gets its sign: log 4 > log 2, log 9 > 3 log 2
    assert LogLinear({4: 1, 2: -1}).sign() == 1
    assert LogLinear({9: 1, 2: -3}).sign() == 1


@pytest.mark.parametrize("coeffs", [{2: 2, 4: -1}, {2: 3, 8: -1}, {4: Fraction(1, 2), 2: -1}, {6: 1, 2: -1, 3: -1}])
def test_a_zero_form_over_a_non_prime_base_is_refused(coeffs):
    # its coefficients are nonzero, so is_zero says False; the sign would say 0
    form = LogLinear(coeffs)
    assert not form.is_zero
    with pytest.raises(InputError, match="non-prime base"):
        form.sign()


def test_sign_needs_deep_precision():
    # 485 log 2 - 306 log 3 = 0.00102...: the convergent 306/485 of
    # log2/log3 agrees to 1e-5, so the sign needs a tight enclosure
    assert LogLinear({2: 485, 3: -306}).sign() == 1
    assert (LogLinear({2: 485}) - LogLinear({3: 306})).sign() == 1
    assert LogLinear({2: -485, 3: 306}).sign() == -1


def test_arith_and_scale():
    a = LogLinear({2: 1, 3: 2})
    b = LogLinear({3: -2, 5: 1})
    assert a + b == LogLinear({2: 1, 5: 1})
    assert a - a == LogLinear({})
    assert a.scale(Fraction(3)) == LogLinear({2: 3, 3: 6})
    assert a.scale(SQRT5).scale(SQRT5) == a.scale(5)


def test_quadratic_coefficients():
    phi = Quad(Fraction(1, 2), Fraction(1, 2), 5)
    x = LogLinear({2: phi, 3: 1 - phi})
    assert (x + x.scale(-1)).is_zero
    assert x.scale(phi.inverse()).scale(phi) == x


def test_enclosure_and_evaluate():
    from monoheight.precision import fraction_to_mpf, mp

    x = LogLinear({2: 1, 3: 1})  # log 6
    lo, hi = x.enclosure(96)
    assert hi - lo < Fraction(1, 2**64)
    with mp.workprec(200):
        assert mp.exp(fraction_to_mpf(lo, 200)) < 6 < mp.exp(fraction_to_mpf(hi, 200))
    assert abs(float(_loop_evaluate(x.coeffs, 96)) - 1.791759469228055) < 1e-12


def test_max_with_zero():
    assert max_with_zero([{2: -1}]) == {}
    assert max_with_zero([{2: 1}]) == {2: 1}
    assert max_with_zero([{}]) == {}


def test_str():
    assert str(LogLinear({})) == "0"
    assert str(LogLinear({2: 1})) == "log 2"
    s = str(LogLinear({2: Fraction(5, 3), 3: -1}))
    assert "log 2" in s and "log 3" in s


def _ladder_sign(form):
    """Sign from interval enclosures alone, tightened until they exclude 0."""
    for prec in (128, 256, 512, 1024, 2048):
        lo, hi = form.enclosure(prec)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
    raise AssertionError("ladder did not separate")


def test_sign_ladder_that_runs_out_ends_in_budget_error(monkeypatch):
    # no bound on how near 0 a form with a surd comes is applied, so a ladder
    # cut to 8 bits runs out on sqrt5 (log 2 - log 3)
    monkeypatch.setattr(monoheight.logforms, "_SIGN_PRECISIONS", (8,))
    coeffs = {2: SQRT5, 3: -SQRT5}
    with pytest.raises(BudgetError, match="did not separate from zero") as raised:
        LogLinear(coeffs).sign()
    assert raised.value.partial == [_enclosure(coeffs, 8)]


SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
rational_forms = st.dictionaries(
    st.sampled_from(SMALL_PRIMES),
    st.fractions(min_value=-400, max_value=400, max_denominator=12),
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(rational_forms)
@example({2: 485, 3: -306})  # a convergent of log 3 / log 2: 0.00102...
@example({2: -485, 3: 306})
@example({2: 84, 3: -53})  # 84 log 2 - 53 log 3 = -0.00209...
@example({2: Fraction(485, 7), 3: Fraction(-306, 7)})
@example({2: 1, 3: 1, 5: -1})
def test_integer_sign_matches_ladder_and_evaluation(coeffs):
    form = LogLinear(coeffs)
    sign = form.sign()
    if form.is_zero:
        assert sign == 0
        return
    assert sign == _ladder_sign(form)
    assert sign == int(mp.sign(_loop_evaluate(form.coeffs, 4096)))


def _count_enclosures(monkeypatch):
    calls = []
    inner = monoheight.logforms._enclosure

    def counted(coeffs, prec):
        calls.append(prec)
        return inner(coeffs, prec)

    monkeypatch.setattr(monoheight.logforms, "_enclosure", counted)
    return calls


def test_small_rational_form_needs_no_enclosure(monkeypatch):
    calls = _count_enclosures(monkeypatch)
    assert LogLinear({2: 485, 3: -306}).sign() == 1
    assert LogLinear({2: Fraction(-485, 3), 3: 102}).sign() == -1
    assert calls == []


def test_form_above_the_bit_bound_takes_the_ladder(monkeypatch):
    calls = _count_enclosures(monkeypatch)
    scale = 2**20
    assert sum(abs(e) * p.bit_length() for p, e in {2: 485 * scale, 3: 306 * scale}.items()) \
        > monoheight.logforms._EXACT_BITS
    assert LogLinear({2: 485 * scale, 3: -306 * scale}).sign() == 1
    assert LogLinear({2: -485 * scale, 3: 306 * scale}).sign() == -1
    assert calls


def test_quadratic_form_takes_the_ladder(monkeypatch):
    calls = _count_enclosures(monkeypatch)
    phi = Quad(Fraction(1, 2), Fraction(1, 2), 5)
    # phi log 2 - log 3 = 0.0228...
    assert LogLinear({2: phi, 3: -1}).sign() == 1
    assert calls


def test_ladder_reads_prime_logs_from_the_cache(monkeypatch):
    calls = []
    inner = monoheight.logforms.log_enclosure

    def counted(q, prec):
        calls.append((q, prec))
        return inner(q, prec)

    monkeypatch.setattr(monoheight.logforms, "log_enclosure", counted)
    monoheight.logforms._prime_log_bounds.cache_clear()
    phi = Quad(Fraction(1, 2), Fraction(1, 2), 5)
    form = LogLinear({2: phi, 3: -1})
    assert form.sign() == 1
    first = sorted(calls)
    assert len(first) == len(set(first))  # one computation per prime and rung
    assert form.sign() == 1 and form.scale(2).sign() == 1
    assert sorted(calls) == first
    monoheight.logforms._prime_log_bounds.cache_clear()


def _weil_height_by_candidates(n, vals):
    """Weil height with one LogLinear per archimedean candidate, compared pairwise."""
    total = LogLinear({p: max(0, -min(vec)) for p, vec in vals.items()})
    best = LogLinear({})
    for j in range(n):
        cand = LogLinear({p: vec[j] for p, vec in vals.items() if vec[j]})
        if (best - cand).sign() < 0:
            best = cand
    return total + best


@st.composite
def valuations(draw):
    """(n, vals): valuation vectors of length n keyed by distinct primes."""
    n = draw(st.integers(min_value=1, max_value=3))
    # a scale of 2^12 puts most candidate differences above the bit bound
    scale = draw(st.sampled_from([1, 1, 2**12]))
    primes = draw(st.lists(st.sampled_from(SMALL_PRIMES), unique=True, max_size=4))
    vals = {p: tuple(scale * draw(st.integers(-60, 60)) for _ in range(n)) for p in primes}
    return n, vals


@settings(max_examples=150, deadline=None)
@given(valuations())
def test_weil_height_matches_candidate_route(drawn):
    n, vals = drawn
    h, expected = LogLinear(_place_heights(vals)), _weil_height_by_candidates(n, vals)
    assert h == expected
    assert str(h) == str(expected)


@pytest.mark.parametrize("ambient", [20, 53, 300])
def test_signs_and_heights_ignore_ambient_precision(ambient):
    forms = [
        {2: 485, 3: -306},
        {2: 485 * 2**20, 3: -306 * 2**20},
        {2: Quad(Fraction(1, 2), Fraction(1, 2), 5), 3: -1},
        {2: 1, 3: 1, 5: -1},
    ]
    points = ["2,3", "-4/9,10", "1/1024,3/5", "7/6,-12/35,11"]
    with mp.workprec(ambient):
        signs = [LogLinear(f).sign() for f in forms]
        heights = [weil_height_of_point(PointGm.parse(p)).to_json() for p in points]
    assert signs == [1, 1, 1, 1]
    assert heights == [weil_height_of_point(PointGm.parse(p)).to_json() for p in points]


def test_coefficients_are_plain_rationals_unless_quadratic():
    mixed = LogLinear({2: Quad(3), 3: Quad(Fraction(1, 2)), 5: Quad(1, 1, 5)})
    plain = LogLinear({2: 3, 3: Fraction(1, 2), 5: Quad(1, 1, 5)})
    assert [type(c) for c in mixed.coeffs.values()] == [int, Fraction, Quad]
    assert mixed == plain and hash(mixed) == hash(plain)
    assert str(mixed) == str(plain) == "3*log 2 + 1/2*log 3 + (1+sqrt(5))*log 5"
    assert str(mixed.scale(-1) + LogLinear({7: Quad(0, -1, 5)})) == \
        "-3*log 2 - 1/2*log 3 + (-1-sqrt(5))*log 5 + (-sqrt(5))*log 7"


def test_rational_quad_differences_tie_exactly(monkeypatch):
    # closed heights compare candidate forms with Quad coefficients; a tie
    # must come out as 0 from the integer test, not fail on the ladder
    assert max_with_zero([{2: Quad(1)}, {2: Quad(1)}]) == {2: 1}
    h = canonical_height_closed(IntMatrix([[3, 2], [0, 5]]), PointGm.parse("-143/5,22"))
    assert h.symbolic == LogLinear({2: 1, 11: 1})

    def no_enclosure(p, prec):
        raise AssertionError("an exact zero reached the precision ladder")

    monkeypatch.setattr(monoheight.logforms, "_prime_log_bounds", no_enclosure)
    assert monoheight.logforms._form_sign({2: Quad(1) - Quad(1), 3: Quad(2) - Quad(2)}) == 0


def test_word_sums_construct_no_quad(monkeypatch):
    shears = [IntMatrix([[1, 1], [0, 1]]), IntMatrix([[1, 0], [1, 1]])]
    golden = CertifiedReal.from_quad(Quad(Fraction(1, 2), Fraction(1, 2), 5))
    made = []
    real = Quad.__init__

    def counting(self, *args, **kwargs):
        made.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Quad, "__init__", counting)
    est = truncated_estimates(shears, PointGm.parse("2,3"), 6, delta=golden)
    assert len(est["summed"].exact_level_sums) == 6
    assert made == []


def _reference_enclosure(coeffs, prec):
    """Interval product term by term: four Fraction products and their min and max."""
    lo = hi = Fraction(0)
    for p, c in coeffs.items():
        if isinstance(c, Quad):
            slo, shi = sqrt_enclosure(Fraction(c.d), prec)
            clo, chi = sorted((c.a + c.b * slo, c.a + c.b * shi))
        else:
            clo = chi = c
        llo, lhi = log_enclosure(Fraction(p), prec)
        products = (clo * llo, clo * lhi, chi * llo, chi * lhi)
        lo += min(products)
        hi += max(products)
    return lo, hi


# from 2 to the Mersenne prime 2^61 - 1, whose logarithm needs six bits before the point
WIDE_PRIMES = (2, 3, 5, 7, 13, 101, 65537, 1000003, 2**31 - 1, 2**61 - 1)
surds = st.builds(
    Quad,
    st.fractions(min_value=-10**4, max_value=10**4, max_denominator=60),
    st.fractions(min_value=-10**4, max_value=10**4, max_denominator=60).filter(bool),
    st.sampled_from([2, 3, 5, 13]),
)
coefficients = st.one_of(
    st.integers(-10**12, 10**12),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**5),
    surds,
    # (1 - sqrt 2)^m is near 0, so its bounds straddle 0 at a low precision
    st.integers(1, 60).map(lambda m: Quad(1, -1, 2) ** m),
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(WIDE_PRIMES), coefficients, max_size=5), st.integers(96, 2048))
@example({}, 128)
@example({2: Quad(Fraction(1, 2), Fraction(1, 2), 5), 3: -1}, 96)
@example({2: Quad(Fraction(1, 2), Fraction(-1, 2), 5), 2**61 - 1: Fraction(-7, 3)}, 2048)
def test_integer_enclosure_matches_the_term_by_term_product(coeffs, prec):
    got = _enclosure(coeffs, prec)
    assert got == _reference_enclosure(coeffs, prec)
    assert [type(x) for x in got] == [Fraction, Fraction]
    if not coeffs:
        assert got == (0, 0)
    for c in coeffs.values():
        if isinstance(c, Quad):
            lo, hi, den = c.bounds(prec)
            assert c.enclosure(prec) == (Fraction(lo, den), Fraction(hi, den))
            slo, shi = sqrt_enclosure(Fraction(c.d), prec)
            assert (Fraction(lo, den), Fraction(hi, den)) == tuple(sorted((c.a + c.b * slo, c.a + c.b * shi)))


def _loop_evaluate(coeffs, prec):
    """The value of sum c * log p as an mpf, independent of the enclosures: a
    loop over the primes in increasing order, each term c * log p rounded to
    prec bits, then added."""
    with mp.workprec(prec):
        total = mp.mpf(0)
        for p, c in sorted(coeffs.items()):
            value = c.to_mpf(prec) if isinstance(c, Quad) else mp.mpf(Fraction(c).numerator) / Fraction(c).denominator
            total += value * mp.log(p)
        return total


@pytest.mark.parametrize("prec", (53, 96, 128, 300))
def test_truncated_estimates_match_a_loop_over_the_level_sums(rng, prec):
    # each reported value is the level sum read at prec + 32 bits over the
    # normalisation; the loop reads the same exact sum without any enclosure
    for _ in range(12):
        dim, k = rng.choice((2, 3)), rng.randint(1, 2)
        mats = [random_matrix(rng, dim) for _ in range(k)]
        P = random_point(rng, dim)
        n, l = rng.randint(1, 5), rng.randint(0, 2)
        delta = rng.choice((1, 2, 3, Fraction(3, 2), Fraction(5, 4)))
        est = truncated_estimates(mats, P, n, l_override=l, delta=delta, prec=prec)
        for variant, per_level in (("summed", 1), ("averaged", k)):
            got = est[variant].values
            assert len(got) == n
            for nu, (value, level_sum) in enumerate(zip(got, est[variant].exact_level_sums), 1):
                norm = fraction_to_mpf(Fraction(nu) ** l * (Fraction(delta) * per_level) ** nu, prec + 32)
                with mp.workprec(prec + 32):
                    want = _loop_evaluate(level_sum.coeffs, prec + 32) / norm
                    assert abs(value - want) <= abs(want) * mp.mpf(2) ** -prec, (mats, P, variant, nu)


@pytest.mark.parametrize("prec", range(2, 13))
def test_low_precision_enclosures_stay_rigorous(prec):
    # at PAD_BITS bits or fewer the lower log bound of 2 reaches 0 or below, and
    # orienting by the coefficient alone, justified by log p > 0, gives a
    # narrower interval than the term-by-term product: still an enclosure
    form = {2: Quad(1, -1, 2) ** 3, 3: Quad(Fraction(1, 2), Fraction(1, 2), 5), 5: Fraction(-7, 3)}
    lo, hi = _enclosure(form, prec)
    ref_lo, ref_hi = _reference_enclosure(form, prec)
    assert ref_lo <= lo <= hi <= ref_hi
    assert (prec <= PAD_BITS) or (lo, hi) == (ref_lo, ref_hi)
    value = _loop_evaluate(form, 256)
    assert fraction_to_mpf(lo, 256) <= value <= fraction_to_mpf(hi, 256)


@pytest.mark.parametrize("ambient", [20, 53, 300])
def test_closed_heights_and_enclosures_ignore_ambient_precision(ambient):
    cases = [
        (IntMatrix([[1, 1], [1, 0]]), "2,3"),
        (IntMatrix([[1, 1], [1, 0]]), "-4/9,10"),
        (IntMatrix([[2, 1], [0, 2]]), "3,5/7"),
        (IntMatrix([[2, 1], [1, 1]]), "2,3"),
        (IntMatrix([[2, 1], [1, 1]]), "1/1024,3/5"),
    ]
    form = LogLinear({2: Quad(Fraction(1, 2), Fraction(1, 2), 5), 3: -1})

    def outputs():
        # from empty tables, so that no value computed at the other precision is read back
        monoheight.matrices._ANALYSES.clear()
        monoheight.logforms._prime_log_bounds.cache_clear()
        return [canonical_height_closed(A, PointGm.parse(p)).to_json() for A, p in cases], form.enclosure(128)

    with mp.workprec(ambient):
        inside = outputs()
    assert inside == outputs()
