import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from athermal.typeclass import (
    FrequencyVector,
    TypeDescriptor,
    all_types,
    cardinality_bounds,
    log_binomial,
    log_type_cardinality,
    shannon_entropy,
    type_cardinality,
    type_probability,
    typical_mass,
    typical_range,
    typical_types,
)


class TestTypeCardinality:
    @pytest.mark.parametrize("counts,expected", [
        ((2, 2), 6),
        ((7, 0), 1),
        ((1, 1, 2), 12),       # 4!/(1! 1! 2!)
        ((0, 5), 1),
    ])
    def test_examples(self, counts, expected):
        assert type_cardinality(TypeDescriptor(counts)) == expected

    @pytest.mark.parametrize("n,d", [(8, 2), (10, 3), (12, 2), (7, 4)])
    def test_multinomial_theorem(self, n, d):
        # Cardinalities over all types of fixed n sum to d^n exactly.
        total = sum(type_cardinality(t) for t in all_types(n, d))
        assert total == d ** n

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            TypeDescriptor((3, -1))


class TestLogCardinality:
    def test_small_exact(self):
        assert log_type_cardinality(TypeDescriptor((2, 2))) == pytest.approx(
            math.log(6), abs=1e-14)
        assert log_type_cardinality(TypeDescriptor((0, 9))) == 0.0

    def test_balanced_hundred(self):
        t = TypeDescriptor((50, 50))
        exact = math.log(math.comb(100, 50))
        assert log_type_cardinality(t) == pytest.approx(exact, abs=1e-12)
        lower, upper = cardinality_bounds(t)
        assert lower <= exact <= upper
        assert upper == pytest.approx(100 * math.log(2) + math.log(100), abs=1e-12)

    def test_loggamma_matches_exact(self):
        # The log-gamma route must stay within 1e-8 relative of the exact count.
        t = TypeDescriptor((7000, 4000, 1000))
        exact = math.log(type_cardinality(t))
        approx = log_type_cardinality(t)
        assert abs(approx - exact) / exact < 1e-8

    @given(st.lists(st.integers(0, 40), min_size=2, max_size=4).filter(lambda c: sum(c) > 0))
    @settings(max_examples=80)
    def test_sandwich(self, counts):
        t = TypeDescriptor(tuple(counts))
        lower, upper = cardinality_bounds(t)
        value = math.log(type_cardinality(t))
        assert lower - 1e-9 <= value <= upper + 1e-9

    def test_log_binomial_out_of_range(self):
        assert log_binomial(5, 9) == -math.inf


class TestTypicalTypes:
    def test_deterministic_source(self):
        window = typical_types(4, (0.0, 1.0), width=3.0)
        assert window == [TypeDescriptor((0, 4))]

    def test_symmetric_window(self):
        # n=100, p=1/2, width 3: counts within 30 of 50.
        window = typical_types(100, (0.5, 0.5), width=3.0)
        ones = sorted(t.counts[1] for t in window)
        assert ones == list(range(20, 81))
        assert typical_range(100, 0.5, 3.0) == (20, 80)

    def test_window_nonempty_for_tiny_n(self):
        assert typical_types(1, (0.5, 0.5), width=0.1)

    def test_three_level_window_simplex(self):
        window = typical_types(12, (0.6, 0.3, 0.1), width=1.0)
        assert window
        for t in window:
            assert t.total == 12
            assert all(c >= 0 for c in t.counts)

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


class TestTypicalMass:
    def test_full_window_exact_one(self):
        window = list(all_types(6, 2))
        mass = typical_mass(6, (Fraction(1, 3), Fraction(2, 3)), window)
        assert mass == Fraction(1)

    def test_deterministic_mass(self):
        window = typical_types(25, (0.0, 1.0), width=1.0)
        assert typical_mass(25, (Fraction(0), Fraction(1)), window) == Fraction(1)

    def test_hoeffding_bound(self):
        # Exact binomial tail mass against the Hoeffding guarantee.
        for n, p, width in [(100, Fraction(1, 2), 3.0), (60, Fraction(1, 4), 2.0),
                            (40, Fraction(3, 4), 1.5)]:
            window = typical_types(n, (1 - p, p), width)
            mass = typical_mass(n, (1 - p, p), window)
            assert float(mass) >= 1 - 2 * math.exp(-2 * width ** 2)

    @given(width=st.floats(0.3, 4.0))
    @settings(max_examples=30)
    def test_window_monotone_in_width(self, width):
        p = Fraction(2, 5)
        narrow = typical_mass(30, (1 - p, p), typical_types(30, (1 - p, p), width))
        wide = typical_mass(30, (1 - p, p), typical_types(30, (1 - p, p), width + 0.5))
        assert wide >= narrow

    def test_wrong_total_rejected(self):
        with pytest.raises(ValueError):
            typical_mass(5, (0.5, 0.5), [TypeDescriptor((2, 2))])


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
    def test_exact_rational_sum(self):
        FrequencyVector((Fraction(1, 3), Fraction(2, 3)))
        with pytest.raises(ValueError):
            FrequencyVector((Fraction(1, 3), Fraction(1, 3)))

    def test_float_tolerance(self):
        FrequencyVector((0.3, 0.7))
        with pytest.raises(ValueError):
            FrequencyVector((0.3, 0.6))

    def test_from_descriptor(self):
        f = TypeDescriptor((3, 9)).frequencies()
        assert f.freqs == (Fraction(1, 4), Fraction(3, 4))
        assert f.is_rational


class TestTypeProbability:
    def test_exact_binomial(self):
        t = TypeDescriptor((1, 1))
        assert type_probability(t, (Fraction(1, 2), Fraction(1, 2))) == Fraction(1, 2)

    def test_float_route(self):
        t = TypeDescriptor((2, 2))
        assert type_probability(t, (0.5, 0.5)) == pytest.approx(6 / 16, abs=1e-12)
