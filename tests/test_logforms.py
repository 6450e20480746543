"""Exact linear forms in logarithms of primes."""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st
from mpmath import mp
import pytest

import monoheight.logforms
from monoheight import (
    CertifiedReal, IntMatrix, LogLinear, PointGm, Quad, canonical_height_closed, weil_height_of_point,
)
from monoheight.heights import truncated_estimates
from monoheight.logforms import max_with_zero
from monoheight.points import LogProfile, weil_height

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


def test_sign_needs_deep_precision():
    # 485 log 2 - 306 log 3 = 0.00102...: the convergent 306/485 of
    # log2/log3 agrees to 1e-5, so the sign needs a tight enclosure
    assert LogLinear({2: 485, 3: -306}).sign() == 1
    assert LogLinear({2: 485}).compare(LogLinear({3: 306})) == 1
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
    assert abs(float(x.evaluate(96)) - 1.791759469228055) < 1e-12


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
    assert sign == int(mp.sign(form.evaluate(4096)))


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
    monoheight.logforms._prime_log_enclosure.cache_clear()
    phi = Quad(Fraction(1, 2), Fraction(1, 2), 5)
    form = LogLinear({2: phi, 3: -1})
    assert form.sign() == 1
    first = sorted(calls)
    assert len(first) == len(set(first))  # one computation per prime and rung
    assert form.sign() == 1 and form.scale(2).sign() == 1
    assert sorted(calls) == first
    monoheight.logforms._prime_log_enclosure.cache_clear()


def _weil_height_by_candidates(prof):
    """Weil height with one LogLinear per archimedean candidate, compared pairwise."""
    total = LogLinear({p: max(0, -min(vec)) for p, vec in prof.vals.items()})
    best = LogLinear({})
    for j in range(prof.n):
        cand = LogLinear({p: vec[j] for p, vec in prof.vals.items() if vec[j]})
        if best.compare(cand) < 0:
            best = cand
    return total + best


@st.composite
def profiles(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    # a scale of 2^12 puts most candidate differences above the bit bound
    scale = draw(st.sampled_from([1, 1, 2**12]))
    primes = draw(st.lists(st.sampled_from(SMALL_PRIMES), unique=True, max_size=4))
    vals = {p: tuple(scale * draw(st.integers(-60, 60)) for _ in range(n)) for p in primes}
    return LogProfile(n=n, vals=vals, signs=(1,) * n)


@settings(max_examples=150, deadline=None)
@given(profiles())
def test_weil_height_matches_candidate_route(prof):
    h = weil_height(prof)
    assert h.symbolic == _weil_height_by_candidates(prof)
    assert str(h.symbolic) == str(_weil_height_by_candidates(prof))


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

    monkeypatch.setattr(monoheight.logforms, "_prime_log_enclosure", no_enclosure)
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
