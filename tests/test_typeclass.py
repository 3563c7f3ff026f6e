"""The method of types as the planners use it: type cardinalities (the
multinomials of ``multilevel``), typical count windows (``typeclass``), their
binomial masses (``counting``), entropies and frequency vectors."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from athermal.counting import (
    binomial_log_pmf,
    binomial_outside_mass,
    factor_value,
    log_comb,
    multinomial_margin_bound,
)
from athermal.core import Hamiltonian
from athermal.multilevel import (
    _compositions,
    _log_multinomials,
    _multinomial_factors,
    max_work,
)
from athermal.typeclass import apportion, shannon_entropy, typical_range

H2 = Hamiltonian.two_level()
NOT_PROBABILITIES = "f_rho is not a probability vector"


def cardinality(counts):
    """Exact M(counts), as the product of multilevel's binomial factors."""
    return math.prod(map(factor_value, _multinomial_factors(counts)))


def log_cardinality(counts):
    return float(_log_multinomials(np.array(counts)))


class TestTypeCardinality:
    @pytest.mark.parametrize("counts,expected", [
        ((2, 2), 6),
        ((7, 0), 1),
        ((1, 1, 2), 12),       # 4!/(1! 1! 2!)
        ((0, 5), 1),
    ])
    def test_examples(self, counts, expected):
        assert cardinality(counts) == expected
        assert math.exp(log_cardinality(counts)) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("n,d", [(8, 2), (10, 3), (12, 2), (7, 4)])
    def test_multinomial_theorem(self, n, d):
        # The compositions of n are every type once, and their cardinalities
        # sum to d^n exactly.
        nus, log_m = _compositions(n, d)
        assert len({tuple(nu) for nu in nus.tolist()}) == len(nus) == math.comb(n + d - 1, d - 1)
        assert (nus.sum(axis=1) == n).all() and (nus >= 0).all()
        assert sum(cardinality(nu) for nu in nus.tolist()) == d ** n
        assert log_m.tolist() == _log_multinomials(nus).tolist()

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match=NOT_PROBABILITIES):
            max_work((Fraction(3, 2), Fraction(-1, 2)), H2, 1.0, 2, 2)


class TestLogCardinality:
    def test_small_exact(self):
        assert log_cardinality((2, 2)) == pytest.approx(math.log(6), abs=1e-14)
        assert log_cardinality((0, 9)) == 0.0

    def test_balanced_hundred(self):
        exact = math.log(math.comb(100, 50))
        assert log_cardinality((50, 50)) == pytest.approx(exact, abs=1e-12)
        assert float(log_comb(100, 50)) == pytest.approx(exact, abs=1e-12)
        assert exact <= 100 * shannon_entropy((0.5, 0.5))

    def test_loggamma_matches_exact(self):
        # The log-gamma value stays within its share of the certified bound.
        counts = (7000, 4000, 1000)
        exact = math.log(cardinality(counts))
        assert abs(log_cardinality(counts) - exact) <= multinomial_margin_bound(12000, 3) / 4

    @given(st.lists(st.integers(0, 40), min_size=2, max_size=4).filter(lambda c: sum(c) > 0))
    @settings(max_examples=80)
    def test_sandwich(self, counts):
        # (n + 1)^-d e^(n H) <= M <= e^(n H) (Csiszar-Koerner, ch. 2).
        n, d = sum(counts), len(counts)
        value = math.log(cardinality(counts))
        entropy = n * shannon_entropy([c / n for c in counts])
        assert entropy - d * math.log(n + 1) - 1e-9 <= value <= entropy + 1e-9
        assert abs(log_cardinality(counts) - value) <= multinomial_margin_bound(n, d) / 4

    def test_log_binomial_out_of_range(self):
        assert log_comb(5, 9) == -math.inf
        assert log_comb(5, -1) == -math.inf


class TestTypicalTypes:
    def test_deterministic_source(self):
        assert typical_range(4, 1.0, 3.0) == (4, 4)
        assert typical_range(4, 0.0, 3.0) == (0, 0)

    def test_symmetric_window(self):
        # n=100, p=1/2, width 3: counts within 30 of 50.
        assert typical_range(100, 0.5, 3.0) == (20, 80)

    def test_window_nonempty_for_tiny_n(self):
        lo, hi = typical_range(1, 0.5, 0.1)
        assert 0 <= lo <= hi <= 1

    def test_three_level_window_simplex(self):
        # The apportioned type lies on the simplex and in every level's window.
        freqs = (0.6, 0.3, 0.1)
        counts = apportion(12, freqs)
        assert sum(counts) == 12
        for c, f in zip(counts, freqs):
            lo, hi = typical_range(12, f, 1.0)
            assert 0 <= lo <= c <= hi

    def test_half_integer_rounds_toward_mode(self):
        # n=2, f=0.25: the mean count 0.5 rounds to 0, the likelier count.
        assert typical_range(2, 0.25, 0.05) == (0, 0)

    def test_half_integer_means_round_by_exact_pmf(self):
        # Every f = (2j + 1) / (2n) whose float mean n f is a half-integer:
        # the centre is the count of larger exact pmf, the lower one on a
        # tie (f = 0.5 and odd n, as at n = 5).
        assert typical_range(5, 0.5, 0.3) == (2, 2)
        checked = 0
        for n in range(1, 301):
            for j in range(n):
                f = (2 * j + 1) / (2 * n)
                lo = math.floor(n * f)
                if n * f - lo != 0.5:
                    continue
                ratio = (Fraction(math.comb(n, lo + 1), math.comb(n, lo))
                         * Fraction(f) / (1 - Fraction(f)))
                assert typical_range(n, f, 1e-6) == ((lo + 1,) * 2 if ratio > 1 else (lo,) * 2)
                checked += 1
        assert checked > 40_000

    @pytest.mark.parametrize("width", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("f", [0.0, 0.3, 1.0])
    def test_bad_width_rejected(self, width, f):
        # A negative width would collapse every window to its centre.
        with pytest.raises(ValueError, match="width"):
            typical_range(10, f, width)

    def test_zero_width_is_the_centre(self):
        assert typical_range(10, 0.3, 0.0) == (3, 3)


class TestTypicalMass:
    def test_full_window_exact_one(self):
        assert binomial_outside_mass(6, 2 / 3, (0, 6)) == 0.0

    def test_deterministic_mass(self):
        assert binomial_outside_mass(25, 1.0, typical_range(25, 1.0, 1.0)) == 0.0

    def test_hoeffding_bound(self):
        # The window's binomial mass against the Hoeffding guarantee.
        for n, p, width in [(100, 0.5, 3.0), (60, 0.25, 2.0), (40, 0.75, 1.5)]:
            outside = binomial_outside_mass(n, p, typical_range(n, p, width))
            assert outside <= 2 * math.exp(-2 * width ** 2)

    @given(width=st.floats(0.3, 4.0))
    @settings(max_examples=30)
    def test_window_monotone_in_width(self, width):
        narrow = binomial_outside_mass(30, 0.4, typical_range(30, 0.4, width))
        wide = binomial_outside_mass(30, 0.4, typical_range(30, 0.4, width + 0.5))
        assert wide <= narrow


class TestShannonEntropy:
    def test_uniform(self):
        assert shannon_entropy((0.25,) * 4) == pytest.approx(math.log(4), abs=1e-14)

    def test_point_mass(self):
        assert shannon_entropy((1.0, 0.0, 0.0)) == 0.0

    def test_three_level_gibbs(self):
        probs = (0.665241, 0.244728, 0.090031)
        expected = -sum(p * math.log(p) for p in probs)
        assert shannon_entropy(probs) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.832396, abs=1e-5)


class TestFrequencyVector:
    """Frequency vectors as max_work accepts them: Fractions must sum to
    exactly 1, floats to within 1e-12."""

    def test_exact_rational_sum(self):
        max_work((Fraction(1, 3), Fraction(2, 3)), H2, 1.0, 3, 3)
        with pytest.raises(ValueError, match=NOT_PROBABILITIES):
            max_work((Fraction(1, 3), Fraction(1, 3)), H2, 1.0, 3, 3)

    def test_float_tolerance(self):
        max_work((0.3, 0.7), H2, 1.0, 3, 3)
        max_work((x for x in (0.3, 0.7)), H2, 1.0, 3, 3)
        with pytest.raises(ValueError, match=NOT_PROBABILITIES):
            max_work((0.3, 0.6), H2, 1.0, 3, 3)


class TestTypeProbability:
    def test_exact_binomial(self):
        # One string of each level in two draws at p = 1/2.
        assert math.exp(binomial_log_pmf(2, 0.5, [1])[0]) == pytest.approx(0.5, rel=1e-15)

    def test_float_route(self):
        assert math.exp(binomial_log_pmf(4, 0.5, [2])[0]) == pytest.approx(6 / 16, abs=1e-12)
