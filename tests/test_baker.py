"""Effective height lower bounds in log space.

Every derived magnitude is rechecked here against a direct mpmath
transcription of the closed formulas, independent of the module's own
arithmetic; decimal pins were frozen from those recomputations.
"""

from fractions import Fraction
from math import factorial

from mpmath import mp
import pytest

from monoheight import (
    BudgetError,
    InputError,
    IntMatrix,
    PointGm,
    UnsupportedError,
    baker_c11,
    effective_constants,
)
from monoheight.baker import CEIL_PREC_CAP, CLEARED_DIGITS_CAP, _ceil_shifted_height, _cleared_representative
from monoheight.points import HeightValue

J2 = IntMatrix([[2, 1], [0, 2]])
FIB = IntMatrix([[1, 1], [1, 0]])


def pt(*coords):
    return PointGm(tuple(Fraction(c) for c in coords))


def rel_err(a, b):
    return abs(a - b) / abs(b)


def test_c11_values():
    assert baker_c11(1) == 2**61
    assert baker_c11(2) == 2**73
    assert baker_c11(3) == 2**77 * 729
    assert baker_c11(7) == 2**109 * 7**14


def test_c11_rejects_bad_n():
    with pytest.raises(InputError):
        baker_c11(0)
    with pytest.raises(InputError):
        baker_c11(-2)
    with pytest.raises(InputError):
        baker_c11(Fraction(3, 2))


def test_effective_constants_repeated_root():
    c = effective_constants(J2, pt(2, 3), prec=256)
    assert c.path == "repeated-root"
    assert c.n_star == 7
    assert c.e_prime == 2**109 * 7**14
    assert c.inputs.field_degree == 1
    assert (c.inputs.r, c.inputs.l) == (1, 1)
    assert c.inputs.support_primes == (2, 3)
    with mp.workprec(256):
        hk = mp.log(3)
        a_log = (2 + 2 * hk) * 12 * (4 + 2 * hk)
        d_log = 8 * (mp.log(8) + mp.log(3 + 2 * hk))
        neg = (
            mp.log(2) + mp.log(2) + mp.log(1)
            + mp.mpf(2**109 * 7**14) * a_log**7 * (d_log + mp.log(a_log))
        )
        assert rel_err(c.a_prime_log, a_log) < 1e-40
        assert rel_err(c.d_prime_log, d_log) < 1e-40
        assert rel_err(c.e_prime_log, mp.log(c.e_prime)) < 1e-40
        assert rel_err(c.neg_log_c, neg) < 1e-40
        pinned = mp.mpf("63.655037040202346379")
        assert abs(c.log10_neg_log_c() - pinned) < 1e-15
    assert c.height_exceeds_bound
    assert c.margin_neg_log > 1e10
    assert c.hypotheses["canonical_height_positive"]


def test_effective_constants_irreducible():
    c = effective_constants(FIB, pt(2, 3), prec=256)
    assert c.path == "irreducible"
    assert c.n_star == 9  # ceil(4 + 2 * 2 log 3)
    assert c.inputs.field_degree == 2
    assert c.e_prime == baker_c11(9) * 2**11
    with mp.workprec(256):
        phi = (1 + mp.sqrt(5)) / 2
        # Jordan entries live in Q(sqrt 5): largest entry height sqrt(phi),
        # 1/det height sqrt 5
        assert rel_err(c.inputs.entry_height_log, mp.log(phi) / 2) < 1e-25
        assert rel_err(c.inputs.det_inv_height_log, mp.log(5) / 2) < 1e-25
        hk = 2 * mp.log(3)
        a_log = (2 + 2 * hk) * 12 * (4 + 2 * hk)
        d_log = 2 * 4 * 1 * 4 * (
            mp.log(4 * 2 * 1 * 2 * factorial(1))
            + mp.log(3 + 2 * hk)
            + mp.log(phi) / 2
            + mp.log(5) / 2
        )
        neg = mp.log(2) + mp.mpf(c.e_prime) * a_log**9 * (d_log + mp.log(a_log))
        assert rel_err(c.neg_log_c, neg) < 1e-25
    assert c.height_exceeds_bound


def test_effective_constants_rejects():
    # rho = 1: no dominant growth
    with pytest.raises(UnsupportedError, match="rho <= 1"):
        effective_constants(IntMatrix([[1, 1], [0, 1]]), pt(2, 3))
    with pytest.raises(UnsupportedError, match="rho <= 1"):
        effective_constants(IntMatrix([[0, -1], [1, 0]]), pt(2, 3))
    # l = 0 with reducible characteristic polynomial: neither path applies
    with pytest.raises(UnsupportedError, match="repeated dominant root|irreducible"):
        effective_constants(IntMatrix([[2, 0], [0, 3]]), pt(2, 3))


def test_effective_constants_rejects_a_point_of_another_dimension():
    with pytest.raises(InputError, match="dimensions differ"):
        effective_constants(J2, pt(2, 3, 5))


def test_effective_constants_torsion_point():
    c = effective_constants(J2, pt(1, -1), prec=192)
    assert c.hhat.is_zero()
    assert not c.height_exceeds_bound
    assert c.margin_neg_log == mp.mpf("-inf")
    assert not c.hypotheses["canonical_height_positive"]


def test_effective_constants_clears_denominators():
    c = effective_constants(J2, pt("1/2", "1/3"), prec=192)
    assert c.inputs.clearing_factor == 6
    assert c.inputs.cleared_point.coords == (Fraction(3), Fraction(2))
    assert c.inputs.point.coords == (Fraction(1, 2), Fraction(1, 3))
    assert c.inputs.support_primes == (2, 3)


def test_effective_constants_monotone_in_height():
    vals = []
    for m in range(1, 11):
        c = effective_constants(J2, pt(2**m, 3), prec=192)
        vals.append(c.log10_neg_log_c())
    assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))


def test_json_field_names():
    d = effective_constants(J2, pt(2, 3)).to_json()
    for key in ("log10_neg_log_C", "A_prime_log", "E_prime_log", "D_prime_log",
                "hypotheses"):
        assert key in d
    assert d["path"] == "repeated-root"
    assert d["inputs"]["clearing_factor"] == 1


def test_cleared_point_stops_below_the_int_string_limit():
    # the report prints both points and the clearing factor; each integer of
    # them is bounded by the factor or a cleared coordinate
    cap = 10**CLEARED_DIGITS_CAP
    assert _cleared_representative(pt(cap - 1, 2)) == (pt(cap - 1, 2), 1)
    cleared, factor = _cleared_representative(pt(Fraction(1, cap // 10), 3))
    assert (cleared, factor) == (pt(1, 3 * cap // 10), cap // 10)
    for P in (pt(cap, 2), pt(Fraction(3, cap // 10), 11), pt(Fraction(-1, 2), cap // 2)):
        with pytest.raises(BudgetError, match="more than 4300 digits"):
            _cleared_representative(P)
    # 2^8000 and 3^5100 have under 4300 digits each, their product more
    with pytest.raises(BudgetError):
        _cleared_representative(pt(Fraction(1, 2**8000), Fraction(1, 3**5100)))


def test_height_ceiling_that_never_separates_ends_in_budget_error(monkeypatch):
    # a numeric enclosure need not narrow with the precision: 4 + 10 h over
    # h in [9/20, 11/20] spans the integer 9 at every precision up to the cap
    h = HeightValue(lo=Fraction(9, 20), hi=Fraction(11, 20))
    precisions = []

    def enclosure(self, prec):
        precisions.append(prec)
        return self.lo, self.hi

    monkeypatch.setattr(HeightValue, "enclosure", enclosure)
    with pytest.raises(BudgetError, match="height-derived exponent") as raised:
        _ceil_shifted_height(4, 10, h)
    assert raised.value.partial == [(h.lo, h.hi)]
    assert precisions[-1] == CEIL_PREC_CAP
