import itertools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from athermal import counting, multilevel
from athermal.core import Hamiltonian, gibbs_state
from athermal.distill import distill_feasible, solve_single_type
from athermal.multilevel import classical_relative_entropy, max_work
from athermal.typeclass import apportion
from multilevel_reference import _search_best_shift as one_pair_search

H3 = Hamiltonian((0.0, 1.0, 2.0))
H2 = Hamiltonian.two_level()


def multinomial(counts):
    """Exact M(c) = (sum c)! / prod c_i!."""
    return math.factorial(sum(counts)) // math.prod(map(math.factorial, counts))


def compositions(total, d):
    """Every composition of total into d nonnegative parts (stars and bars)."""
    for bars in itertools.combinations(range(total + d - 1), d - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, total + d - 1)))


def decide(counts_rho, counts_bath, deltas):
    """The engine's certified unitarity test M(counts_rho) M(counts_bath) <=
    M(nu) at the output nu = counts_rho + counts_bath - deltas (deltas:
    per-level occupation decreases).  Returns (holds, margin in nats)."""
    nu = np.add(counts_rho, counts_bath) - deltas
    (holds,), (margin,) = multilevel._CountingTest([(counts_rho, counts_bath)]).decide(0, nu[None])
    return bool(holds), float(margin)


def best_shift(counts_rho, counts_bath, energies):
    """The engine's search on the one-pair list [(counts_rho, counts_bath)]."""
    (found,) = multilevel._search_best_shifts([(counts_rho, counts_bath)], energies)
    return found


class TestApportion:
    @given(st.integers(1, 200), st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5))
    @settings(max_examples=60)
    def test_sums_to_total(self, total, raw):
        freqs = [w / sum(raw) for w in raw]
        counts = apportion(total, freqs)
        assert sum(counts) == total
        assert all(c >= 0 for c in counts)


class TestUnitarityCondition:
    def test_zero_shift_merging_margin(self):
        # Merging two type classes into the joint class never loses strings.
        holds, margin = decide((2, 2, 2), (4, 1, 1), (0, 0, 0))
        assert holds and margin >= 0.0
        # margin equals ln[M(joint)/(M_rho M_gam)] exactly
        joint = multinomial((6, 3, 3))
        sep = multinomial((2, 2, 2)) * multinomial((4, 1, 1))
        assert margin == pytest.approx(math.log(joint) - math.log(sep), abs=1e-12)

    def test_all_mass_to_one_level_fails(self):
        # Compressing everything into the ground level would need more
        # strings than one configuration offers.
        holds, margin = decide((2, 2, 2), (4, 1, 1), (-6, 3, 3))
        assert not holds and margin < 0.0

    @pytest.mark.parametrize("ell,g,n,r", [(4, 1, 2, 2), (6, 2, 4, 3), (8, 3, 5, 1)])
    def test_two_level_reduces_to_con_ent(self, ell, g, n, r):
        # At m = 0 the d = 2 condition is exactly the two-level counting
        # inequality on the merged string class.
        holds, _ = decide((n - r, r), (ell - g, g), (0, 0))
        assert holds == distill_feasible(ell, g, n, r, 0)

    def test_exact_matches_loggamma(self):
        _, approx_margin = decide((30, 20, 10), (40, 15, 5), (6, -3, -3))
        exact_margin = math.log(multinomial((64, 38, 18))) - math.log(
            multinomial((30, 20, 10)) * multinomial((40, 15, 5)))
        assert approx_margin == pytest.approx(exact_margin, rel=1e-9)


class TestAsymptoticCondition:
    """The ell -> inf unitarity relation -x . ln f_gamma <= D(f_rho || f_gamma),
    x the per-level occupation decreases over n."""

    def test_zero_shift_holds(self):
        gam = gibbs_state(H3, 1.0).probs
        assert -np.zeros(3) @ np.log(gam) <= classical_relative_entropy(gam, gam)

    def test_gibbs_input_blocks_positive_work(self):
        # With f_rho = f_gamma, D = 0: only shifts with -x ln gamma <= 0 pass.
        # Extracting work removes occupation from the top level (positive
        # top component).
        gam = gibbs_state(H3, 1.0).probs
        d = classical_relative_entropy(gam, gam)
        extract = np.array([-1, 0, 1]) / 10
        assert extract @ H3.energies > 0
        assert -extract @ np.log(gam) > d
        assert extract @ np.log(gam) <= d

    def test_saturating_shift_identity(self):
        # Along x = alpha (e_i - e_j), -x ln gamma = D forces
        # beta H . x = D exactly (ln gamma = -beta H - ln Z).
        beta = 1.0
        gam = gibbs_state(H3, beta).probs
        rho = (0.2, 0.3, 0.5)
        d = classical_relative_entropy(rho, gam)
        alpha = d / (beta * (2.0 - 0.0))
        x = (Fraction(alpha).limit_denominator(10 ** 9) * -1,
             Fraction(0), Fraction(alpha).limit_denominator(10 ** 9))
        lhs = -sum(float(xi) * math.log(g) for xi, g in zip(x, gam))
        work = beta * sum(float(xi) * e for xi, e in zip(x, H3.energies))
        assert lhs == pytest.approx(work, abs=1e-9)
        assert lhs == pytest.approx(d, abs=1e-6)


class TestMaxWork:
    def test_gibbs_input_yields_nothing(self):
        gam = gibbs_state(H3, 1.0).probs
        ledger = max_work(gam, H3, 1.0, 8, 8)
        assert ledger.extracted == 0.0
        assert ledger.per_level_delta == (0, 0, 0)

    def test_small_exact_instance(self):
        ledger = max_work((0, 0, 1), H3, 1.0, 6, 6)
        assert ledger.exact_search
        assert ledger.extracted > 0.0
        assert ledger.feasibility_margin >= 0.0
        ledger.check_energy_bookkeeping(H3)

    def test_brute_force_oracle_agreement(self):
        # Independent exhaustive check of the center-type optimum.
        counts_rho, counts_bath = (0, 1, 3), (3, 1, 0)
        work, deltas, margin, exact, _ = best_shift(counts_rho, counts_bath, H3.energies)
        s = tuple(a + b for a, b in zip(counts_rho, counts_bath))
        lhs = multinomial(counts_rho) * multinomial(counts_bath)
        best = -1.0
        for n0 in range(9):
            for n1 in range(9 - n0):
                nu = (n0, n1, 8 - n0 - n1)
                if multinomial(nu) >= lhs:
                    w = sum((si - vi) * e for si, vi, e in zip(s, nu, H3.energies))
                    best = max(best, w)
        assert work == pytest.approx(best, abs=1e-12)

    def test_two_level_at_least_distillation(self):
        # The raw-energy ledger extracts at least the qubit protocol's
        # m E0 (which also locks thermal weight into the work qubits).
        for (ell, g, n, r) in [(4, 1, 2, 2), (4, 2, 2, 1), (6, 2, 3, 3)]:
            work, *_ = best_shift((n - r, r), (ell - g, g), H2.energies)
            assert work >= solve_single_type(ell, g, n, r) - 1e-12

    def test_matched_reference_instance(self):
        # On the two-level reference instance the two accountings agree.
        work, *_ = best_shift((0, 2), (3, 1), H2.energies)
        assert work == pytest.approx(solve_single_type(4, 1, 2, 2), abs=1e-12)

    def test_bound_with_vanishing_slack(self):
        # W <= (n / beta) D + slack, with the slack rate shrinking along n.
        slacks = []
        for n in (6, 30, 150):
            ledger = max_work((0, 0, 1), H3, 1.0, n, 6 * n)
            slacks.append(max(0.0, ledger.per_copy - ledger.bound_per_copy))
        assert slacks[-1] <= slacks[0]
        assert slacks[-1] <= 0.2

    def test_dimension_cap(self):
        h7 = Hamiltonian(tuple(float(i) for i in range(7)))
        with pytest.raises(ValueError):
            max_work((0,) * 6 + (1,), h7, 1.0, 5, 5)


class TestExactImpliesAsymptotic:
    def test_margin_shrinks_with_bath(self):
        # Whenever the exact counting condition holds, the asymptotic
        # relation -x ln f_gamma <= D(f_rho||f_gamma) can only be violated
        # by a poly(log ell)/ell term, which shrinks along the bath grid.
        gam_probs = gibbs_state(H3, 1.0).probs
        violations = []
        for ell in (20, 80, 320):
            n = ell
            counts_rho = apportion(n, (0.1, 0.2, 0.7))
            counts_gam = apportion(ell, gam_probs)
            f_rho = [c / n for c in counts_rho]
            f_gam = [c / ell for c in counts_gam]
            d_val = classical_relative_entropy(f_rho, f_gam)
            worst = 0.0
            for d0 in range(-3, 4):
                for d1 in range(-3, 4):
                    deltas = (d0, d1, -d0 - d1)
                    if min(np.add(counts_rho, counts_gam) - deltas) < 0:
                        continue
                    holds, _ = decide(counts_rho, counts_gam, deltas)
                    if not holds:
                        continue
                    lhs = -sum(d / n * math.log(g) for d, g in zip(deltas, f_gam))
                    worst = max(worst, lhs - d_val)
            violations.append(max(worst, 0.0))
        assert violations[0] >= violations[1] >= violations[2]
        assert violations[-1] <= 10 * math.log(320) / 320


def reference_best_shift(counts_rho, counts_bath, energies):
    """Composition-by-composition exhaustive search in big integers: the
    lexicographic maximum of (work, -deltas) over every output type nu with
    M(nu) >= M(counts_rho) M(counts_bath).  Returns (work, deltas)."""
    s_vec = tuple(r + b for r, b in zip(counts_rho, counts_bath))
    lhs = multinomial(counts_rho) * multinomial(counts_bath)
    best = None
    for nu in compositions(sum(s_vec), len(energies)):
        if multinomial(nu) >= lhs:
            deltas = tuple(s - v for s, v in zip(s_vec, nu))
            key = (sum(d * e for d, e in zip(deltas, energies)), tuple(-d for d in deltas))
            if best is None or key > best:
                best = key
    return best[0], tuple(-v for v in best[1])


def exact_log_ratio(top: int, bottom: int) -> float:
    """ln(top / bottom) of two positive big integers, to 50 digits."""
    with mpmath.workdps(50):
        return float(mpmath.log(mpmath.mpf(top)) - mpmath.log(mpmath.mpf(bottom)))


def composition(total, d):
    """A strategy for compositions of total into d parts (sorted cuts)."""
    return st.lists(st.integers(0, total), min_size=d - 1, max_size=d - 1).map(
        lambda cuts: tuple(np.diff([0, *sorted(cuts), total]).tolist()))


def counts_of(total, d, energies):
    """Counts of total over d levels: any composition, a Gibbs apportionment,
    or all in one level (pure inputs make one-level outputs exact ties)."""
    gibbs = gibbs_state(Hamiltonian(tuple(float(e) for e in energies)), 1.0).probs
    return (composition(total, d) | st.just(apportion(total, gibbs))
            | st.integers(0, d - 1).map(lambda i: tuple(total * (j == i) for j in range(d))))


class TestCertifiedSearch:
    @given(d=st.integers(2, 6), n=st.integers(1, 10_000), ell=st.integers(0, 10_000),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_margins_within_quarter_delta(self, d, n, ell, data):
        counts_rho = data.draw(composition(n, d))
        counts_bath = data.draw(composition(ell, d))
        nu = data.draw(composition(n + ell, d))
        test = multilevel._CountingTest([(counts_rho, counts_bath)])
        _, (margin,) = test.decide(0, np.array([nu]))
        ref = exact_log_ratio(multinomial(nu), multinomial(counts_rho) * multinomial(counts_bath))
        assert abs(margin - ref) <= counting.multinomial_margin_bound(n + ell, d) / 4

    @given(d=st.integers(2, 4), n=st.integers(1, 20), ell=st.integers(0, 20), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_exhaustive_matches_reference(self, d, n, ell, data):
        energies = tuple(float(e) for e in data.draw(
            st.lists(st.integers(0, 3), min_size=d, max_size=d).map(sorted)))
        counts_rho = data.draw(counts_of(n, d, energies))
        counts_bath = data.draw(counts_of(ell, d, energies))
        work, deltas, margin, exhaustive, partial = best_shift(counts_rho, counts_bath, energies)
        assert exhaustive and not partial and margin >= 0.0
        assert (work, deltas) == reference_best_shift(counts_rho, counts_bath, energies)

    def test_tie_reaches_exact_comparator(self, monkeypatch):
        # Pure inputs: M(counts_rho) M(counts_bath) = 1 = M((N, 0)), so the
        # best output, everything in the ground level, has margin exactly 0
        # and is accepted only by the exact comparison.
        n, ell = 7, 5
        decided = []
        real = multilevel.products_leq
        monkeypatch.setattr(multilevel, "products_leq",
                            lambda lhs, rhs: decided.append(rhs) or real(lhs, rhs))
        work, deltas, margin, exhaustive, _ = best_shift((0, n), (ell, 0), H2.energies)
        assert [(n + ell, 0)] in decided
        assert (work, deltas, margin, exhaustive) == (float(n), (-n, n), 0.0, True)


class TestMaxWorkInputs:
    @pytest.mark.parametrize("override,name", [
        ({"n": 0}, "n"), ({"n": -1}, "n"), ({"ell": -1}, "ell"),
        ({"beta": 0.0}, "beta"), ({"beta": -1.0}, "beta"), ({"width": -1.0}, "width"),
        ({"f_rho": (0.2, 0.2, 0.2)}, "f_rho"), ({"f_rho": (0.5, 0.6, -0.1)}, "f_rho"),
    ])
    def test_bad_input_names_argument(self, override, name):
        args = {"f_rho": (0.0, 0.0, 1.0), "hamiltonian": H3, "beta": 1.0, "n": 6, "ell": 6,
                "width": 3.0, **override}
        with pytest.raises(ValueError, match=rf"^{name} "):
            max_work(**args)

    def test_zero_width_probes_centre_only(self):
        ledger = max_work((0.1, 0.3, 0.6), H3, 1.0, 10, 10, width=0.0)
        assert ledger.probes == (((1, 3, 6), apportion(10, gibbs_state(H3, 1.0).probs),
                                  ledger.extracted),)


# Totals N = n + ell per (d, branch): sweeps small enough for the one-pair
# reference, climbs from just above the enumeration cap.  Every d = 2 climb,
# and the larger d = 2 sweeps, have N >= 2^16, where log_factorial leaves its
# table for Stirling's formula over the whole array.
SEARCH_TOTALS = {
    (2, True): (2, 120_000), (2, False): (300_000, 400_000),
    (3, True): (2, 200), (3, False): (774, 5_000),
    (4, True): (2, 60), (4, False): (120, 1_000),
    (5, True): (2, 25), (5, False): (50, 400),
    (6, True): (2, 15), (6, False): (30, 200),
}

# (n, ell, p, beta) of the benchmark's two max_work jobs at seeds 0 to 3.
BENCHMARK_JOBS = [
    (20, 40, 0.75, 1.0), (1000, 2000, 0.75, 1.0),
    (20, 40, 0.7485, 0.9926), (1000, 2000, 0.7515, 0.9942),
    (20, 40, 0.7507, 1.0052), (1000, 2000, 0.7485, 1.003),
    (20, 40, 0.748, 0.9992), (1000, 2000, 0.7501, 1.0061),
]


def reference_searches(pairs, energies):
    """The batched search's contract: the one-pair search, pair by pair."""
    return [one_pair_search(a, b, energies) for a, b in pairs]


class TestBatchedSearch:
    @pytest.mark.parametrize("d,exhaustive", sorted(SEARCH_TOTALS))
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_matches_one_pair_search(self, d, exhaustive, data):
        # Every tuple, margins included, equals the one-pair search's repr;
        # most random climb pairs start from an infeasible seed and repair.
        total = data.draw(st.integers(*SEARCH_TOTALS[d, exhaustive]), label="total")
        n = data.draw(st.integers(1, total), label="n")
        # Energies on a 1e-3 grid: below about 1e-6 a gap leaves the seed
        # uniform and the greedy phase walks one unit per round, O(N) rounds.
        energies = tuple(float(e) for e in data.draw(st.lists(
            st.integers(0, 3) | st.integers(0, 4000).map(lambda k: k / 1000),
            min_size=d, max_size=d), label="energies"))
        pairs = data.draw(st.lists(st.tuples(counts_of(n, d, energies),
                                             counts_of(total - n, d, energies)),
                                   min_size=1, max_size=5), label="pairs")
        found = multilevel._search_best_shifts(pairs, energies)
        assert all(f[3] == exhaustive for f in found)
        assert repr(found) == repr(reference_searches(pairs, energies))

    @pytest.mark.parametrize("n,ell,p,beta", BENCHMARK_JOBS + [(30_000, 60_000, 0.75, 1.0)])
    def test_ledgers_match_one_pair_search(self, monkeypatch, n, ell, p, beta):
        f_rho = ((1 - p) / 2, (1 - p) / 2, p)
        ledger = max_work(f_rho, H3, beta, n, ell)
        monkeypatch.setattr(multilevel, "_search_best_shifts", reference_searches)
        assert repr(max_work(f_rho, H3, beta, n, ell)) == repr(ledger)

    def test_climb_tests_every_pair_at_once(self, monkeypatch):
        # One pair at a time, this call took 515 ln M evaluations, most on
        # one- to three-row arrays; in lockstep it takes one per round.
        calls = []
        real = multilevel._log_multinomials
        monkeypatch.setattr(multilevel, "_log_multinomials",
                            lambda counts: calls.append(counts.shape) or real(counts))
        ledger = max_work((0.125, 0.125, 0.75), H3, 1.0, 1000, 2000)
        assert not ledger.exact_search and len(ledger.probes) == 49
        assert len(calls) <= 30

    def test_sweep_memory_is_blocked(self):
        # d = 6, N = 29: 278,256 compositions, just under the cap.  Unblocked,
        # 40 pairs would take 89 MB for each (pairs x compositions) float matrix.
        energies = (0.0, 0.4, 1.0, 1.3, 2.0, 2.5)
        pairs = list(itertools.islice(itertools.product(compositions(12, 6),
                                                        compositions(17, 6)), 0, 4000, 100))
        assert len(pairs) == 40 and math.comb(29 + 5, 5) <= multilevel.ENUMERATION_CAP
        multilevel._compositions(29, 6)     # the cached table is not the sweep's
        tracemalloc.start()
        try:
            found = multilevel._search_best_shifts(pairs, energies)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The float copy of the table and a few one-block matrices, 22 MiB
        # here; the one-pair search peaked at 36 MiB on these pairs.
        assert peak <= 8 * (6 * 278_256 + 6 * multilevel._SWEEP_CELLS)
        assert repr(found[::13]) == repr(reference_searches(pairs[::13], energies))
