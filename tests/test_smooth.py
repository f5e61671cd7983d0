import tracemalloc
from math import isqrt, prod

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from prodcong import smooth
from prodcong.arith import ceil_power, floor_power
from prodcong.errors import DomainError, ResourceError
from prodcong.smooth import build_smooth_table, greedy_factor
from reference_smooth import greedy_factor_reference, greedy_parts_reference, prime_factors_desc


def trial_lpf(n: int) -> int:
    if n == 1:
        return 1
    largest = 1
    d = 2
    while d * d <= n:
        while n % d == 0:
            largest = d
            n //= d
        d += 1
    return max(largest, n) if n > 1 else largest


@pytest.fixture(scope="module")
def table():
    return build_smooth_table(10**4)


class TestSmoothTable:
    def test_examples(self, table):
        assert table.lpf[12] == 3
        assert table.lpf[1] == 1
        assert table.lpf[97] == 97

    def test_matches_trial_division(self, table):
        assert table.lpf[1:500].tolist() == [trial_lpf(n) for n in range(1, 500)]

    def test_out_of_range(self, table):
        with pytest.raises(DomainError):
            table.psi(10**4 + 1, 2)

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("PRODCONG_SIEVE_CAP", "100")
        with pytest.raises(ResourceError):
            build_smooth_table(101)

    def test_shared_table_refuses_beyond_cap(self, monkeypatch):
        # the kept table covers 6000 here, and is still not used past the cap
        greedy_factor([6000], 7000, 0.5, 0.5)
        monkeypatch.setenv("PRODCONG_SIEVE_CAP", "5000")
        with pytest.raises(ResourceError, match="sieve cap 5000"):
            greedy_factor([6000], 7000, 0.5, 0.5)
        greedy_factor([5000], 7000, 0.5, 0.5)


class TestPsi:
    def test_examples(self, table):
        assert table.psi(10, 2) == 4  # {1, 2, 4, 8}
        assert table.psi(10, 10) == 10
        assert table.psi(1, 0.5) == 1

    def test_monotone_in_x_and_y(self, table):
        for y in (2, 3, 7.5, 97):
            values = [table.psi(x, y) for x in range(1, 400)]
            assert values == sorted(values)
        for x in (10, 99, 400):
            values = [table.psi(x, y) for y in np.linspace(1, x, 25)]
            assert values == sorted(values)


def split(x, m, c0, c, table=None):
    """greedy_factor on the one x: its parts, or None where ok is False."""
    parts, k, ok = greedy_factor([x], m, c0, c, table=table)
    return tuple(parts[0, : k[0]].tolist()) if ok[0] else None


class TestGreedyFactor:
    def test_fits_in_one_part(self, table):
        assert split(60, 10**4, 0.5, 0.5, table) == (60,)

    def test_unit(self, table):
        assert split(1, 10**4, 0.5, 0.5, table) == (1,)

    def test_packing_example(self, table):
        # primes 11,7,5,3,2,2,2 pack to 77 then 60; the leftover 2 leads
        assert split(9240, 10**4, 0.5, 0.5, table) == (2, 77, 60)

    def test_non_smooth_rejected(self, table):
        assert split(3 * 101, 10**4, 0.5, 0.5, table) is None

    def test_no_primes_below_bound_rejected(self):
        assert split(2, 3, 0.5, 0.5) is None

    def test_x_above_m_rejected(self, table):
        with pytest.raises(DomainError):
            greedy_factor([101], 100, 0.5, 0.5, table=table)

    def test_invalid_exponents(self, table):
        with pytest.raises(DomainError):
            greedy_factor([4], 100, 0.7, 0.5, table=table)
        with pytest.raises(DomainError):
            greedy_factor([4], 100, 0.5, 1.0, table=table)

    @given(st.data())
    def test_random_instances_satisfy_contract(self, data):
        table = _hyp_table()
        m = data.draw(st.integers(min_value=16, max_value=10**4))
        c0 = data.draw(st.sampled_from([0.3, 0.5]))
        c = data.draw(st.sampled_from([c0, min(c0 + 0.25, 0.9)]))
        bound = floor_power(m, c0)
        if bound < 2:
            return
        candidates = (np.flatnonzero(table.lpf[1 : m + 1] <= bound) + 1).tolist()
        x = data.draw(st.sampled_from(candidates))
        parts = split(x, m, c0, c, table)
        cap = floor_power(m, c)
        lo = ceil_power(m, c / 2)
        assert prod(parts) == x
        assert parts[0] <= cap
        assert all(lo <= part <= cap for part in parts[1:])
        assert len(parts) <= int(np.ceil(2 / c0)) + 1

    @pytest.mark.parametrize("c0, c", [(0.3, 0.3), (0.4, 0.4), (0.5, 0.5), (0.3, 0.55)])
    def test_matches_merge_loop_reference(self, table, c0, c):
        # parts depend on m only through floor(m**c0), floor(m**c) and
        # ceil(m**(c/2)); for each triple met at m <= 3000, every smooth x up to
        # the largest such m covers every eligible (m, x) with that triple
        largest = {}
        for m in range(2, 3001):
            bounds = (floor_power(m, c0), floor_power(m, c), ceil_power(m, c / 2))
            if bounds[0] >= 2:
                largest[bounds] = m
        checked = 0
        for (bound, _, _), m in largest.items():
            xs = np.flatnonzero(table.lpf[1 : m + 1] <= bound) + 1
            parts, k, ok = greedy_factor(xs, m, c0, c, table=table)
            assert ok.all(), (m, xs[~ok])
            for x, row, k_x in zip(xs.tolist(), parts.tolist(), k.tolist()):
                want = greedy_parts_reference(prime_factors_desc(table.lpf, x), m, c)
                assert tuple(row[:k_x]) == want, (x, m)
                checked += 1
        assert checked > 1000

    def test_deterministic(self, table):
        a = greedy_factor([7560, 9240], 10**4, 0.5, 0.5, table=table)
        b = greedy_factor([7560, 9240], 10**4, 0.5, 0.5, table=table)
        for first, second in zip(a, b):
            assert np.array_equal(first, second)

    def test_exhaustive_coprime_sweep_small(self):
        # every sqrt(m)-smooth x <= m coprime to m splits within bounds
        table = _hyp_table()
        for m in range(4, 400):
            xs = np.arange(1, m + 1)
            xs = xs[(np.gcd(xs, m) == 1) & (table.lpf[1 : m + 1] <= isqrt(m))]
            parts, k, ok = greedy_factor(xs, m, 0.5, 0.5, table=table)
            assert ok.all(), (m, xs[~ok])
            assert (parts.prod(axis=1) == xs).all(), m
            assert (k <= 5).all(), m


_HYP_TABLE = None


def _hyp_table():
    global _HYP_TABLE
    if _HYP_TABLE is None:
        _HYP_TABLE = build_smooth_table(10**4)
    return _HYP_TABLE


def greedy_reference(xs, m, c0, c, table):
    """The scalar reference on each x: its parts, or None where it raises."""
    out = []
    for x in xs.tolist():
        try:
            out.append(greedy_factor_reference(x, m, c0, c, table.lpf))
        except DomainError:
            out.append(None)
    return out


def assert_rows_match(table, m, c0, c):
    xs = np.arange(1, m + 1)
    parts, k, ok = greedy_factor(xs, m, c0, c, table=table)
    for x, want, row, k_x, ok_x in zip(xs, greedy_reference(xs, m, c0, c, table), parts, k, ok):
        assert ok_x == (want is not None), (m, x)
        if want is not None:
            assert k_x == len(want), (m, x)
            assert tuple(row[:k_x].tolist()) == want, (m, x)
            assert (row[k_x:] == 1).all(), (m, x)


class TestGreedyKernel:
    @pytest.mark.parametrize("c0, c", [(0.3, 0.3), (0.4, 0.4), (0.5, 0.5), (0.3, 0.55)])
    def test_matches_greedy_factor_on_every_x(self, table, c0, c):
        # the enumeration of test_matches_merge_loop_reference, over every
        # x <= m: smooth or not, unit or not
        largest = {}
        for m in range(2, 3001):
            bounds = (floor_power(m, c0), floor_power(m, c), ceil_power(m, c / 2))
            if bounds[0] >= 2:
                largest[bounds] = m
        for m in largest.values():
            assert_rows_match(table, m, c0, c)

    def test_bound_one(self, table):
        # floor(3**0.1) = 1: only x = 1 splits
        assert_rows_match(table, 3, 0.1, 0.1)
        assert smooth._greedy_check(np.arange(1, 4), 3, 0.1, 0.1, table) == (3, 1, 2)

    @pytest.mark.parametrize("xs, m, c0, c", [
        ([0], 100, 0.5, 0.5),
        ([101], 100, 0.5, 0.5),
        ([1], 1, 0.5, 0.5),
        ([4], 100, 0.0, 0.5),
        ([4], 100, 0.7, 0.5),
        ([4], 100, 0.5, 1.0),
        ([200], 300, 0.5, 0.5),  # beyond the table passed
    ], ids=["x_below_one", "x_above_m", "m_below_two", "c0_zero", "c0_above_c", "c_one",
            "beyond_table"])
    def test_call_level_refusals_raise(self, xs, m, c0, c):
        # what the scalar form refused for any x refuses the whole call,
        # also when the refused x sits among valid ones
        small = build_smooth_table(150)
        with pytest.raises(DomainError):
            greedy_factor_reference(xs[0], m, c0, c, small.lpf)
        for batch in (xs, [1, 2, *xs]):
            with pytest.raises(DomainError):
                greedy_factor(batch, m, c0, c, table=small)

    def test_xs_must_be_one_dimensional(self, table):
        with pytest.raises(DomainError):
            greedy_factor([[2, 3]], 100, 0.5, 0.5, table=table)

    @pytest.mark.parametrize("tighten", [
        lambda b: (b[0] - 3, b[1], b[2], b[3]),
        lambda b: (b[0], b[1] - 5, b[2], b[3]),
        lambda b: (b[0], b[1], b[1], b[3]),
        lambda b: (b[0], b[1], b[2], 2),
        lambda b: (b[0], b[0] - 1, 1, b[3]),  # at m = 97**2, x = 97 splits as (1, 97)
    ], ids=["smooth_bound", "cap", "lo_at_cap", "two_parts", "prime_over_cap"])
    def test_matches_greedy_factor_under_tightened_bounds(self, table, monkeypatch, tighten):
        # at m's own bounds k never exceeds ceil(2/c0) + 1 and no part exceeds
        # the cap, so those checks are pinned where a tightened bound binds
        natural = smooth._bounds
        monkeypatch.setattr(smooth, "_bounds", lambda m, c0, c: tighten(natural(m, c0, c)))
        for m in (1000, 2310, 4096, 9409, 9973):
            assert_rows_match(table, m, 0.5, 0.5)

    def test_blocks_add_up(self, table, monkeypatch):
        m, c0 = 2310, 0.4
        xs = np.arange(1, m + 1)
        want = [parts for parts in greedy_reference(xs, m, c0, c0, table) if parts]
        summary = (m, max(map(len, want)), m - len(want))
        monkeypatch.setattr(smooth, "_GREEDY_BLOCK", 7)
        assert smooth._greedy_check(xs, m, c0, c0, table) == summary

    def test_memory_is_bounded_by_the_block(self):
        # one block holds a part matrix of bit_length(m) + 1 int64 columns;
        # the ordered copy and the row vectors keep the peak under three
        m = 10**6
        table = build_smooth_table(m)
        xs = np.flatnonzero(table.lpf[1:] <= floor_power(m, 0.5)) + 1
        limit = 3 * smooth._GREEDY_BLOCK * (m.bit_length() + 1) * 8
        assert len(xs) * (m.bit_length() + 1) * 8 > 10 * limit  # unblocked, it would not fit
        tracemalloc.start()
        try:
            checked, max_k, failures = smooth._greedy_check(xs, m, 0.5, 0.5, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (checked, failures) == (len(xs), 0)
        assert max_k <= 5
        assert peak < limit
