import gc
import tracemalloc
import weakref
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from prodcong import arith
from prodcong.arith import (
    FieldContext,
    build_field_context,
    ceil_power,
    euler_phi,
    factorize,
    floor_power,
    is_prime,
    primes_in_range,
    primitive_root,
)
from prodcong.errors import DomainError, ResourceError
from prodcong.rng import stream
from reference_field import dlog_reference


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def multiply_out(factorization) -> int:
    result = 1
    for p, e in factorization:
        result *= p**e
    return result


class TestFactorize:
    def test_one_is_empty_product(self):
        assert factorize(1) == []

    def test_twelve(self):
        assert factorize(12) == [(2, 2), (3, 1)]

    def test_prime_97(self):
        assert trial_division_is_prime(97)
        assert factorize(97) == [(97, 1)]

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            factorize(0)

    @given(st.integers(min_value=1, max_value=10**12))
    def test_roundtrip_and_shape(self, n):
        fac = factorize(n)
        assert multiply_out(fac) == n
        primes = [p for p, _ in fac]
        assert primes == sorted(set(primes))
        assert all(trial_division_is_prime(p) for p in primes if p < 10**6)
        assert all(is_prime(p) for p in primes)
        assert all(e >= 1 for _, e in fac)

    def test_roundtrip_bulk_100k(self):
        gen = stream(1, "factorize-roundtrip")
        ns = gen.integers(1, 10**12 + 1, size=100_000)
        for n in ns.tolist():
            fac = factorize(n)
            assert multiply_out(fac) == n
            primes = [p for p, _ in fac]
            assert primes == sorted(set(primes))

    def test_adversarial_shapes(self):
        for n in [2**40, 3**25, 999983**2, 1000003 * 999983, 2 * 3 * 5 * 7 * 11 * 13 * 999983]:
            assert multiply_out(factorize(n)) == n


# psi_t, the least strong pseudoprime to each of the first t prime bases
# (psi_8 = psi_7 and psi_11 = psi_10 = psi_9)
PSI = [
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
]


class TestIsPrime:
    @pytest.mark.parametrize("t, n", list(enumerate(PSI, 1)))
    def test_every_psi_bound_is_composite(self, t, n):
        # psi_t passes the first t bases, so the test needs base t + 1
        assert not is_prime(n)

    def test_psi_12_factors_into_its_two_primes(self):
        assert factorize(318665857834031151167461) == [(399165290221, 1), (798330580441, 1)]
        assert is_prime(399165290221) and is_prime(798330580441)

    def test_matches_the_sieve_below_2e5(self):
        # every strong pseudoprime to base 2 below psi_2 (2047 is caught by
        # trial division, 3277 = 29 * 113 by base 3)
        sieve = np.zeros(200_000, dtype=bool)
        sieve[primes_in_range(2, 199_999)] = True
        assert [n for n in range(200_000) if is_prime(n) != sieve[n]] == []

    def test_first_primes_past_each_bound(self):
        # the least prime above each distinct psi_t takes the next prefix of
        # bases and stays prime; past psi_13 (and for 2**89 - 1) the answer
        # is unproven
        for n in (
            2053, 1373677, 25326023, 3215031767, 2152302898771, 3474749660401,
            341550071728361, 3825123056546413057, 318665857834031151167483,
            3317044064679887385962123, 2**89 - 1,
        ):
            assert is_prime(n), n


class TestEulerPhi:
    def test_examples(self):
        assert euler_phi(1) == 1
        assert euler_phi(12) == 4
        for p in (2, 3, 31, 997):
            assert euler_phi(p) == p - 1

    def test_matches_bruteforce_up_to_1e4(self):
        for n in range(1, 10**4 + 1):
            brute = int(np.count_nonzero(np.gcd(np.arange(1, n + 1, dtype=np.int64), n) == 1))
            assert euler_phi(n) == brute


class TestPrimitiveRoot:
    def test_examples(self):
        assert primitive_root(2) == 1
        assert primitive_root(7) == 3
        assert primitive_root(11) == 2

    def test_rejects_composite(self):
        with pytest.raises(DomainError):
            primitive_root(8)

    def test_smallest_by_order_oracle(self):
        for p in primes_in_range(3, 100):
            found = primitive_root(p)
            for g in range(1, found):
                order = 1
                x = g % p
                while x != 1:
                    x = x * g % p
                    order += 1
                assert order < p - 1  # nothing smaller generates
            order = 1
            x = found
            while x != 1:
                x = x * found % p
                order += 1
            assert order == p - 1


class TestFieldContext:
    def test_p5_table(self):
        ctx = build_field_context(5)
        assert ctx.g == 2
        assert ctx.dlog[1] == 0
        assert ctx.dlog[2] == 1
        assert ctx.dlog[4] == 2
        assert ctx.dlog[3] == 3

    def test_p2_trivial(self):
        ctx = build_field_context(2)
        assert ctx.g == 1
        assert ctx.dlog[1] == 0

    def test_p7_example(self):
        ctx = build_field_context(7)
        assert ctx.g == 3
        assert ctx.dlog[6] == 3  # 3**3 == 27 == 6 mod 7

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 31, 101, 499])
    def test_bijection_and_homomorphism(self, p):
        ctx = build_field_context(p)
        exponents = sorted(int(ctx.dlog[x]) for x in range(1, p))
        assert exponents == list(range(p - 1))
        units = np.arange(1, p, dtype=np.int64)
        products = (units[:, None] * units[None, :]) % p
        lhs = ctx.dlog[products]
        rhs = (ctx.dlog[units][:, None] + ctx.dlog[units][None, :]) % (p - 1)
        assert np.array_equal(lhs, rhs)

    def test_rejects_composite(self):
        with pytest.raises(DomainError):
            build_field_context(9)

    def test_table_cap(self, monkeypatch):
        monkeypatch.setenv("PRODCONG_TABLE_CAP", "10")
        with pytest.raises(ResourceError):
            build_field_context(11)

    @pytest.mark.parametrize(
        "primes",
        [primes_in_range(2, 5999), [65537], [4194301]],
        ids=["below-6000", "65537", "table-cap"],
    )
    def test_table_equals_reference_loop(self, primes):
        for p in primes:
            ctx = build_field_context(p)
            assert ctx.dlog.dtype == np.int64 and not ctx.dlog.flags.writeable
            assert np.array_equal(ctx.dlog, dlog_reference(p, ctx.g)), p

    def test_power_tables_equal_the_pow_loop(self):
        for p in primes_in_range(2, 5999) + [65537, 4194301]:
            g = primitive_root(p)
            b = isqrt(p - 2) + 1
            giant, baby, order = FieldContext(p, g)._powers
            assert giant.dtype == baby.dtype == np.int64
            assert giant.tolist() == [pow(g, b * i, p) for i in range(-(-(p - 1) // b))], p
            assert baby.tolist() == [pow(g, j, p) for j in range(b)], p
            assert order.tolist() == np.argsort(giant[-1] * baby % p).tolist(), p

    def test_power_tables_past_int64_products(self):
        # (p-1)**2 >= 2**63: the powers are still exact, one Python product each
        p, g = 3037000507, 2
        b = isqrt(p - 2) + 1
        giant, baby, _ = FieldContext(p, g)._powers
        assert giant.size == -(-(p - 1) // b) and baby.size == b
        for i in (0, 1, 63, 64, 65, 1000, giant.size - 1):
            assert giant[i] == pow(g, b * i, p)
        for j in (0, 1, 63, 64, 65, 1000, b - 1):
            assert baby[j] == pow(g, j, p)

    @pytest.mark.parametrize("p", [2, 3, 65537, 999983])
    def test_residue_mask_equal_on_both_branches(self, p):
        # the powers g**e of flagged exponents, through the table or not; with
        # the table built, fewer than 1/32 flagged still take the powers
        g = primitive_root(p)
        for density in (0.3, 0.01):
            flags = stream(p, "residue-mask").random(p - 1) < density
            flags[-1] = True
            ctx = FieldContext(p, g)
            searched = ctx._residue_mask(flags)
            assert "dlog" not in vars(ctx)
            ctx.dlog
            looked_up = ctx._residue_mask(flags)
            expected = np.zeros(p, dtype=bool)
            expected[[pow(g, int(e), p) for e in np.flatnonzero(flags)]] = True
            assert np.array_equal(searched, expected) and np.array_equal(looked_up, expected)

    def test_int64_overflow_refused_before_allocating(self, monkeypatch):
        # 3037000507 is the least prime with (p-1)**2 >= 2**63; its table would
        # take 24 GB, so the build must not even start
        def build_started(p):
            raise AssertionError(f"table build started for p={p}")

        monkeypatch.setenv("PRODCONG_TABLE_CAP", str(1 << 40))
        monkeypatch.setattr(arith, "primitive_root", build_started)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match="9223372073444256036"):
                build_field_context(3037000507)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    def test_cache_keeps_only_the_latest_tables(self):
        # a sweep over primes must not pin one dlog table per prime
        refs = [weakref.ref(build_field_context(p)) for p in (1009, 1013, 1019, 1021, 1031)]
        gc.collect()
        assert sum(ref() is not None for ref in refs) <= 2


# 65537 - 1 = 2**16, and 4194301 is the largest prime under the table cap.
LOOKUP_PRIMES = [2, 3, 5, 65537, 999983, 4194301]


@lru_cache(maxsize=1)
def _lookup_case(p):
    """(g, the reference table, a context whose table the lookup may build)."""
    g = primitive_root(p)
    return g, dlog_reference(p, g), FieldContext(p, g)


@st.composite
def lookup_members(draw, p, g):
    """Units mod p in no order and with repeats: 1, p-1, g, g**-1, units whose
    log is a multiple of b or b-1, and random units."""
    b = isqrt(p - 2) + 1
    special = [1, p - 1, g % p, pow(g, -1, p)]
    special += [pow(g, k * step, p) for step in (b, b - 1) for k in range(1, 4)]
    multiple = st.builds(
        lambda k, step: pow(g, k * step, p), st.integers(0, p - 2), st.sampled_from([b, b - 1])
    )
    drawn = draw(st.lists(st.one_of(st.integers(1, p - 1), multiple), max_size=12))
    repeats = draw(st.lists(st.sampled_from(special), max_size=4))
    return draw(st.permutations(special + drawn + repeats))


class TestIndexLookup:
    @pytest.mark.parametrize("p", LOOKUP_PRIMES)
    @given(data=st.data())
    def test_matches_reference_on_both_branches(self, p, data):
        g, reference, dense = _lookup_case(p)
        xs = data.draw(lookup_members(p, g))
        n, b = p - 1, isqrt(p - 2) + 1
        searched = -(-n // b) * b.bit_length()
        # the largest count whose lookup does less work than the table's p-1
        few = -(-n // searched) - 1
        fresh = FieldContext(p, g)
        if few:  # at p = 2 only the empty lookup is cheaper than the table
            for lo in range(0, len(xs), few):
                part = np.array(xs[lo : lo + few])
                assert fresh.index(part).tolist() == reference[part].tolist()
        assert "dlog" not in vars(fresh)
        # padded to the count at which reading the table pays
        many = np.resize(np.array(xs), max(len(xs), few + 1))
        looked_up = dense.index(many)
        assert "dlog" in vars(dense)
        assert looked_up.dtype == np.int64
        assert looked_up.tolist() == reference[many].tolist()

    @pytest.mark.parametrize("p", [5, 999983])
    def test_non_unit_refused_on_both_branches(self, p):
        ctx = FieldContext(p, primitive_root(p))
        for x in (0, -1, p, 2 * p + 1):
            for xs in ([x], [1] * (p - 1) + [x]):
                with pytest.raises(DomainError, match="discrete log"):
                    ctx.index(np.array(xs))
        assert "dlog" not in vars(ctx)
        assert ctx.index(np.array([], dtype=np.int64)).tolist() == []

    def test_missing_hit_raises(self):
        # 2 has order 3 mod 7, so no giant step takes 3 into its baby powers
        # {1, 2, 4}; the row must raise, not read argmax's 0
        ctx = FieldContext(7, 2)
        with pytest.raises(ArithmeticError, match="does not generate"):
            ctx.index(np.array([3]))
        assert "dlog" not in vars(ctx)
        # [1, 3] takes the table branch, whose build raises the same error
        # instead of returning the table's [3, -1]
        with pytest.raises(ArithmeticError, match="does not generate"):
            ctx.index(np.array([1, 3]))

    @pytest.mark.parametrize("p, g", [(7, 2), (7, 6), (13, 3), (101, 4), (101, 100)])
    def test_non_generator_refused_on_both_branches(self, p, g):
        # g is a square or -1 mod p, so its powers miss a unit: the table
        # must not hand out its -1 or repeated entries, and every lookup
        # that needs a missed unit raises on the search branch as well
        ctx = FieldContext(p, g)
        with pytest.raises(ArithmeticError, match="does not generate"):
            ctx.index(np.arange(1, p))  # the table branch, by the cost rule
        with pytest.raises(ArithmeticError, match="does not generate"):
            ctx.dlog
        assert "dlog" not in vars(ctx)
        missed = next(x for x in range(1, p) if x not in {pow(g, e, p) for e in range(p - 1)})
        with pytest.raises(ArithmeticError, match="does not generate"):
            ctx.index(np.array([missed]))  # the search branch
        assert "dlog" not in vars(ctx)

    @pytest.mark.parametrize("p, g", [(2, 0), (101, 0), (101, 202)])
    def test_zero_generator_refused_on_both_branches(self, p, g):
        # g = 0 mod p is no generator and has no inverse: one or two units
        # mod 101 take the search branch and all of them the table, and each
        # raises a non-generator's error, as does the table itself
        for units in ([1], [p - 1], range(1, p)):
            with pytest.raises(ArithmeticError, match="does not generate"):
                FieldContext(p, g).index(np.array(units))
        with pytest.raises(ArithmeticError, match="does not generate"):
            FieldContext(p, g).dlog

    def test_context_builds_no_table(self):
        arith._field_context.cache_clear()
        ctx = build_field_context(999983)
        assert "dlog" not in vars(ctx)
        assert ctx.index(np.arange(1, 48)).tolist() == ctx.dlog[1:48].tolist()


class TestPowers:
    def test_exact_square_boundaries(self):
        assert floor_power(10**4, 0.5) == 100
        assert floor_power(99, 0.5) == 9
        assert ceil_power(10**4, 0.5) == 100
        assert ceil_power(101, 0.5) == 11
        assert floor_power(2**40, 0.5) == 2**20
        assert floor_power(10**4, 0.25) == 10
        assert ceil_power(10**4, 0.25) == 10

    def test_non_dyadic_pins(self):
        assert floor_power(1024, 0.3) == 8
        assert floor_power(64, Fraction(1, 3)) == 4
        assert floor_power(1000, Fraction(1, 3)) == 10
        assert ceil_power(3125, 0.2) == 5
        assert ceil_power(7776, 0.2) == 6

    def test_float_means_its_shortest_decimal(self):
        assert floor_power(10**6, 0.3) == floor_power(10**6, Fraction(3, 10)) == 63
        assert ceil_power(2**20, 0.3 / 2) == ceil_power(2**20, Fraction(3, 20)) == 8
        assert floor_power(5, 0) == ceil_power(5, 0) == 1
        assert floor_power(7, 2) == ceil_power(7, 2) == 49
        # the float 0.3 and its binary value compare and hash equal, but the
        # binary value is 5404319552844595/2**54, whose power is refused
        with pytest.raises(ResourceError):
            floor_power(1024, Fraction(0.3))
        with pytest.raises(ResourceError):
            ceil_power(1024, Fraction(0.3))

    def test_rejects_bad_exponents(self):
        for bad in (-0.5, Fraction(-1, 3), float("inf"), float("nan")):
            with pytest.raises(DomainError):
                floor_power(10, bad)
        with pytest.raises(DomainError):
            ceil_power(0, 0.5)

    def test_size_refused_before_allocating(self):
        # 123456789/10**9 would need 1000**123456789, about 150 MB
        tracemalloc.start()
        try:
            for exponent in (0.123456789, Fraction(123456789, 10**9)):
                with pytest.raises(ResourceError, match="cap"):
                    floor_power(1000, exponent)
                with pytest.raises(ResourceError, match="cap"):
                    ceil_power(1000, exponent)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_tiny_exponent_needs_no_large_power(self):
        # 1e-09 is 1/10**9: 2**(10**9) > 1000 settles the root without forming it
        assert floor_power(1000, 1e-09) == 1
        assert ceil_power(1000, 1e-09) == 2

    @given(
        st.integers(min_value=1, max_value=10**9),
        st.integers(min_value=1, max_value=4),
        st.data(),
    )
    def test_floor_ceil_sandwich_exact(self, base, places, data):
        # a decimal with at most four places, passed as the float it names
        num = data.draw(st.integers(min_value=0, max_value=2 * 10**places - 1))
        exact = Fraction(num, 10**places)
        f = floor_power(base, float(exact))
        c = ceil_power(base, float(exact))
        n, k = exact.numerator, exact.denominator
        assert f**k <= base**n < (f + 1) ** k
        assert c == f + (0 if f**k == base**n else 1)
