import gc
import tracemalloc
import weakref
from itertools import product as iproduct
from math import sqrt

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from prodcong import charsums
from prodcong.arith import FieldContext, build_field_context, primes_in_range
from prodcong.charsums import (
    _dlog_spectrum,
    burgess_profile,
    char_sum,
    energy_diagnostic,
    product_energy,
    product_energy_via_characters,
    product_growth_bound,
)
from prodcong.errors import DomainError, ResourceError
from prodcong.residues import Interval, ResidueSet, product_set
from prodcong.rng import stream


def brute_energy(xs, ys, p):
    """Literal quadruple count of x1*y1 == x2*y2 (mod p)."""
    count = 0
    for x1, y1, x2, y2 in iproduct(xs, ys, xs, ys):
        if x1 * y1 % p == x2 * y2 % p:
            count += 1
    return count


def brute_energy_by_counts(xs, ys, p):
    """The quadruple count from a dict of product multiplicities."""
    counts = {}
    for x, y in iproduct(xs, ys):
        counts[x * y % p] = counts.get(x * y % p, 0) + 1
    return sum(c * c for c in counts.values())


@st.composite
def energy_instance(draw):
    p = draw(st.sampled_from(primes_in_range(3, 199)))
    kx = draw(st.integers(min_value=1, max_value=min(6, p - 1)))
    ky = draw(st.integers(min_value=1, max_value=min(6, p - 1)))
    units = list(range(1, p))
    xs = draw(st.permutations(units)).copy()[:kx]
    ys = draw(st.permutations(units)).copy()[:ky]
    return p, sorted(xs), sorted(ys)


@st.composite
def unit_set(draw):
    p = draw(st.sampled_from(primes_in_range(3, 499)))
    return p, draw(st.sets(st.integers(1, p - 1), min_size=1, max_size=40))


@st.composite
def adversarial_set(draw):
    """Sets whose spectra have exact zeros and ties: a subgroup of index 2..6,
    a coset of one, an arithmetic progression, or a random set of exactly the
    GEMM rule's largest member count or one more."""
    p = draw(st.sampled_from(primes_in_range(179, 2000)))
    ctx = build_field_context(p)
    units = np.arange(1, p)
    kind = draw(st.sampled_from(["subgroup", "coset", "progression", "rule"]))
    if kind in ("subgroup", "coset"):
        index = draw(st.sampled_from([k for k in range(2, 7) if (p - 1) % k == 0]))
        members = units[ctx.dlog[units] % index == 0]
        if kind == "coset":
            members = members * draw(st.integers(2, p - 1)) % p
    elif kind == "progression":
        start = draw(st.integers(0, p - 1))
        step = draw(st.integers(1, p - 1))
        count = draw(st.integers(1, p - 1))
        members = (start + step * np.arange(count)) % p
        members = members[members != 0]
    else:
        top = charsums._GEMM_MEMBERS_PER_BIT * ((p - 1) // 2 + 1).bit_length()
        count = top + draw(st.integers(0, 1))
        members = np.array(draw(st.permutations(range(1, p)))[:count])
    return p, np.unique(members)


def spectrum_on(path, ctx, members):
    """The half spectrum with the GEMM rule forced to `path`, bypassing the memo."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(charsums, "_gemm_pays", lambda count, bins: path == "gemm")
        mp.setattr(charsums, "_last_spectrum", None)
        return _dlog_spectrum(ctx, np.array(sorted(members), dtype=np.int64))


class TestCharSum:
    def test_principal_counts_members(self):
        ctx = build_field_context(7)
        assert char_sum(ctx, 0, [1, 2, 5]) == pytest.approx(3)

    def test_p5_example(self):
        ctx = build_field_context(5)
        value = char_sum(ctx, 1, [1, 2])
        assert value == pytest.approx(1 + 1j, abs=1e-12)
        assert abs(value) == pytest.approx(sqrt(2), abs=1e-12)

    def test_full_group_orthogonality(self):
        ctx = build_field_context(11)
        for j in range(1, 10):
            assert char_sum(ctx, j, range(1, 11)) == pytest.approx(0, abs=1e-9)

    def test_zero_rejected(self):
        ctx = build_field_context(7)
        with pytest.raises(DomainError):
            char_sum(ctx, 1, [0, 1])

    def test_bad_index_rejected(self):
        ctx = build_field_context(7)
        with pytest.raises(DomainError):
            char_sum(ctx, 6, [1])

    def test_interval_is_its_set(self):
        # an interval, a wrapping one too, sums over its members; one of
        # another modulus or one that holds 0 is refused as a set would be
        ctx = build_field_context(11)
        for offset, length in ((0, 4), (8, 2), (5, 5)):
            members = [(offset + i) % 11 for i in range(1, length + 1)]
            for j in (0, 1, 3):
                assert char_sum(ctx, j, Interval(offset, length, 11)) == char_sum(ctx, j, members)
        for bad in (Interval(0, 4, 13), Interval(8, 3, 11)):
            with pytest.raises(DomainError):
                char_sum(ctx, 1, bad)

    @pytest.mark.parametrize("p", [3, 5, 7, 31, 101, 499])
    def test_character_orthogonality_relation(self, p):
        # averaging chi_j(u) over all characters isolates u == 1
        ctx = build_field_context(p)
        for u in range(1, p):
            total = sum(char_sum(ctx, j, [u]) for j in range(p - 1)) / (p - 1)
            expected = 1.0 if u == 1 else 0.0
            assert total == pytest.approx(expected, abs=1e-9)

    def test_char_sum_builds_no_root_table(self):
        # only the |X| needed roots are evaluated, each bit-identical to the
        # entry of the full table of p-1 roots
        p = 10007
        ctx = build_field_context(p)
        table = np.exp(2j * np.pi * np.arange(p - 1) / (p - 1))
        xs = np.arange(1, 500)
        for j in (0, 1, 7, p - 2):
            assert char_sum(ctx, j, xs) == complex(table[(j * ctx.dlog[xs]) % (p - 1)].sum())
        ctx = build_field_context(999983)
        tracemalloc.start()
        try:
            char_sum(ctx, 1, [1, 2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestProductEnergy:
    def test_small_example(self):
        assert product_energy([1, 2], [1, 2], 11) == 6

    def test_singleton(self):
        assert product_energy([1], [1], 11) == 1

    def test_full_group_cube(self):
        p = 5
        assert product_energy(range(1, p), range(1, p), p) == (p - 1) ** 3
        assert brute_energy(range(1, p), range(1, p), p) == (p - 1) ** 3

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            product_energy([0, 1], [1], 7)

    def test_products_beyond_int64_refused(self):
        # 3037000493 and 3037000507 are the primes on either side of
        # (p-1)**2 = 2**63: [1, p-1] * [1, p-1] has J = 8 exactly, and an
        # int64 product that wrapped would count it as 6
        p = 3037000493
        assert product_energy([1, p - 1], [1, p - 1], p) == 8
        p = 3037000507
        with pytest.raises(ResourceError, match="overflow"):
            product_energy([1, p - 1], [1, p - 1], p)

    def test_composite_modulus_rejected(self):
        # the histogram kernel needs multiplication by units to permute residues
        with pytest.raises(DomainError):
            product_energy([1, 2], [1, 2], 15)

    @given(energy_instance())
    def test_matches_bruteforce(self, case):
        p, xs, ys = case
        assert product_energy(xs, ys, p) == brute_energy(xs, ys, p)

    @pytest.mark.parametrize(
        "xs, ys",
        [
            ([2, 3, 4], [1, 4, 6, 100]),  # 12 products, 3*4 == 2*6: sorted
            (range(1, 13), [1]),  # 12 distinct products: sorted
            (range(1, 14), [1]),  # 13: the histogram
            ([2, 3, 4, 6, 100], [1, 2, 3]),  # 15, with repeats: the histogram
        ],
    )
    def test_both_sides_of_the_sort_rule(self, xs, ys):
        # mod 101 the products are sorted while 8|X||Y| <= 101
        assert product_energy(xs, ys, 101) == brute_energy(xs, ys, 101)

    def test_sorted_products_build_no_histogram(self):
        # the 47*47 products of a charsum row at p near 10**6 are sorted, not
        # counted in an 8 MB table of p entries
        tracemalloc.start()
        try:
            j = product_energy(range(1, 48), range(1, 48), 999983)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert j == brute_energy_by_counts(range(1, 48), range(1, 48), 999983)
        assert peak < 2**20

    def test_dense_products_keep_the_histogram(self):
        # 316**2 products mod 100003 (nearly p of them) are counted in the
        # p-entry histogram, about 9 bytes a residue; sorting them would
        # trace about 24 bytes a product
        p = 100003
        tracemalloc.start()
        try:
            j = product_energy(range(1, 317), range(1, 317), p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert j == brute_energy_by_counts(range(1, 317), range(1, 317), p)
        assert peak < 16 * p

    @given(energy_instance())
    def test_symmetry_and_diagonal_bound(self, case):
        p, xs, ys = case
        j = product_energy(xs, ys, p)
        assert j == product_energy(ys, xs, p)
        assert j >= len(xs) * len(ys)
        distinct = len({x * y % p for x in xs for y in ys})
        if distinct == len(xs) * len(ys):
            assert j == len(xs) * len(ys)
        else:
            assert j > len(xs) * len(ys)


class TestCharacterIdentity:
    def test_trivial_instance(self):
        ctx = build_field_context(7)
        assert product_energy_via_characters(ctx, [1], [1]) == pytest.approx(1.0)

    def test_small_instance(self):
        ctx = build_field_context(11)
        assert product_energy_via_characters(ctx, [1, 2], [1, 2]) == pytest.approx(6.0, abs=1e-6)

    def test_full_group(self):
        ctx = build_field_context(5)
        assert product_energy_via_characters(ctx, range(1, 5), range(1, 5)) == pytest.approx(
            64.0, abs=1e-6
        )

    def test_random_instances_match_direct_count(self):
        gen = stream(3, "charsums-identity")
        primes = primes_in_range(3, 499)
        for _ in range(20):
            p = primes[int(gen.integers(len(primes)))]
            kx = int(gen.integers(1, min(30, p - 1) + 1))
            ky = int(gen.integers(1, min(30, p - 1) + 1))
            xs = gen.choice(np.arange(1, p), size=kx, replace=False)
            ys = gen.choice(np.arange(1, p), size=ky, replace=False)
            ctx = build_field_context(p)
            direct = product_energy(xs, ys, p)
            via_chars = product_energy_via_characters(ctx, xs, ys)
            assert abs(via_chars - direct) <= 1e-6 * direct

    def test_three_routes_agree(self):
        # histogram count, FFT spectrum, and an explicit per-character loop;
        # the later cases swap X and Y, set X = Y and change p under the same
        # members, so a spectrum kept from the case before must never be reused
        for p, xs, ys in [
            (13, [1, 5, 8], [2, 3]),
            (31, [7, 9, 11, 30], [1, 2, 3, 4, 5]),
            (31, [1, 2, 3, 4, 5], [7, 9, 11, 30]),
            (31, [7, 9, 11, 30], [7, 9, 11, 30]),
            (31, [1, 2, 3, 4, 5], [1, 2, 3, 4, 5]),
            (37, [1, 2, 3, 4, 5], [1, 2, 3, 4, 5]),
            (37, [1, 2, 3, 4, 5], [2, 3]),
        ]:
            ctx = build_field_context(p)
            direct = product_energy(xs, ys, p)
            via_fft = product_energy_via_characters(ctx, xs, ys)
            via_loop = sum(
                abs(char_sum(ctx, j, xs)) ** 2 * abs(char_sum(ctx, j, ys)) ** 2
                for j in range(p - 1)
            ) / (p - 1)
            assert via_fft == pytest.approx(direct, rel=1e-9)
            assert via_loop == pytest.approx(direct, rel=1e-9)


class TestSpectrumMemo:
    def test_keeps_at_most_one_spectrum(self):
        # a sweep over primes must not pin one spectrum per prime
        refs = []
        for p in (1009, 1013, 1019, 1021, 1031):
            spectrum = _dlog_spectrum(build_field_context(p), np.arange(1, 6))
            assert not spectrum.flags.writeable
            refs.append(weakref.ref(spectrum))
            del spectrum
        gc.collect()
        assert sum(ref() is not None for ref in refs) <= 1

    def test_kept_spectrum_dropped_before_the_fft(self, monkeypatch):
        # near p = 10**6 the kept spectrum is 4 MB, released before the next
        # transform allocates its buffers
        monkeypatch.setattr(charsums, "_gemm_pays", lambda count, bins: False)
        ctx = build_field_context(1009)
        _dlog_spectrum(ctx, np.arange(1, 6))
        kept_during_fft = []
        fft = np.fft.fft

        def checking_fft(a, *rest, **kw):
            kept_during_fft.append(charsums._last_spectrum)
            return fft(a, *rest, **kw)

        monkeypatch.setattr(np.fft, "fft", checking_fft)
        _dlog_spectrum(ctx, np.arange(1, 7))
        assert kept_during_fft == [None]

    def test_kept_spectrum_dropped_before_the_gemm(self, monkeypatch):
        ctx = build_field_context(1009)
        _dlog_spectrum(ctx, np.arange(1, 6))
        kept_during_gemm = []
        gemm = charsums._gemm_spectrum

        def checking_gemm(ctx, members):
            kept_during_gemm.append(charsums._last_spectrum)
            return gemm(ctx, members)

        monkeypatch.setattr(charsums, "_gemm_spectrum", checking_gemm)
        _dlog_spectrum(ctx, np.arange(1, 7))
        assert kept_during_gemm == [None]

    def test_generator_is_part_of_the_key(self):
        # the same set under another primitive root permutes the characters
        p = 11
        ctx = build_field_context(p)
        other = FieldContext(p, 7)
        for c in (ctx, other, ctx):
            expected = max(
                range(1, p - 1), key=lambda j: (round(abs(char_sum(c, j, [1, 2, 3])), 9), -j)
            )
            assert burgess_profile(c, 3).argmax_j == expected


class TestHalfSpectrum:
    @given(unit_set())
    @example((3, {2}))  # p = 3: bins 0 and (p-1)/2 are the whole spectrum
    @example((3, {1, 2}))
    @example((3, set()))
    @example((2, {1}))  # p = 2: one bin
    @example((2, set()))
    def test_matches_direct_sums(self, case):
        p, members = case
        ctx = build_field_context(p)
        # the rule sends p = 2 to the GEMM: the packed FFT needs p >= 3
        for path in ("gemm",) if p == 2 else ("fft", "gemm"):
            spectrum = spectrum_on(path, ctx, members)
            assert spectrum.size == (p - 1) // 2 + 1
            for j in range(spectrum.size):
                assert spectrum[j] == pytest.approx(abs(char_sum(ctx, j, members)), abs=1e-9)

    @given(adversarial_set())
    def test_paths_agree_on_adversarial_sets(self, case):
        p, members = case
        ctx = build_field_context(p)
        np.testing.assert_allclose(
            spectrum_on("gemm", ctx, members), spectrum_on("fft", ctx, members),
            rtol=0, atol=1e-9,
        )

    def test_rule_boundary(self, monkeypatch):
        # the rule's largest set takes the GEMM, and one more member the FFT
        ran = []

        def recording(path):
            kernel = getattr(charsums, f"_{path}_spectrum")

            def spectrum(ctx, members):
                ran.append(path)
                return kernel(ctx, members)

            return spectrum

        for path in ("gemm", "fft"):
            monkeypatch.setattr(charsums, f"_{path}_spectrum", recording(path))
        ctx = build_field_context(1009)
        top = charsums._GEMM_MEMBERS_PER_BIT * (505).bit_length()
        _dlog_spectrum(ctx, np.arange(1, top + 1))
        _dlog_spectrum(ctx, np.arange(1, top + 2))
        assert ran == ["gemm", "fft"]

    @pytest.mark.parametrize(
        "p,block", [(101, 1), (1009, 7), (1009, 504), (262147, 1 << 16)]
    )
    def test_blocks_match_full_fft(self, monkeypatch, p, block):
        # untangling in blocks of any size gives the first half of the
        # full-length spectrum; 262147 spans three default blocks
        monkeypatch.setattr(charsums, "_gemm_pays", lambda count, bins: False)
        monkeypatch.setattr(charsums, "_UNTANGLE_BLOCK", block)
        monkeypatch.setattr(charsums, "_last_spectrum", None)
        ctx = build_field_context(p)
        members = np.array([1, 2, 3, 5, 8, 13, p - 2, p - 1])
        ind = np.zeros(p - 1)
        ind[ctx.dlog[members]] = 1.0
        full = np.abs(np.fft.fft(ind))
        np.testing.assert_allclose(
            _dlog_spectrum(ctx, members), full[: (p - 1) // 2 + 1], rtol=0, atol=1e-9
        )

    @pytest.mark.parametrize(
        "p,block", [(101, 1), (1009, 7 * 8 * 23), (1009, 22 * 8 * 23), (262147, 1 << 18)]
    )
    def test_gemm_blocks_match_full_fft(self, monkeypatch, p, block):
        # row blocks of any size give the first half of the full-length
        # spectrum: one row at a time, at p = 1009 (8 members, 22 rows of 23
        # columns) 7 rows with a short last block or all 22 at once, and at
        # 262147 the default block
        monkeypatch.setattr(charsums, "_gemm_pays", lambda count, bins: True)
        monkeypatch.setattr(charsums, "_GEMM_BLOCK", block)
        monkeypatch.setattr(charsums, "_last_spectrum", None)
        ctx = build_field_context(p)
        members = np.array([1, 2, 3, 5, 8, 13, p - 2, p - 1])
        ind = np.zeros(p - 1)
        ind[ctx.dlog[members]] = 1.0
        full = np.abs(np.fft.fft(ind))
        np.testing.assert_allclose(
            _dlog_spectrum(ctx, members), full[: (p - 1) // 2 + 1], rtol=0, atol=1e-9
        )

    def test_gemm_calls_stay_single_threaded(self, monkeypatch):
        # OpenBLAS threads a zgemm of more than 2**18 multiply-adds; every
        # row block stays within that, and the blocks cover every row once
        shapes = []
        matmul = np.matmul

        def recording_matmul(a, b, *rest, **kw):
            shapes.append((a.shape[0], a.shape[1], b.shape[1]))
            return matmul(a, b, *rest, **kw)

        monkeypatch.setattr(np, "matmul", recording_matmul)
        monkeypatch.setattr(charsums, "_last_spectrum", None)
        ctx = build_field_context(999983)
        _dlog_spectrum(ctx, np.arange(1, 48))
        assert max(m * k * n for m, k, n in shapes) <= 2**18
        # 499992 bins: 708 columns (ceil of the square root) by 707 rows
        assert {(k, n) for _, k, n in shapes} == {(47, 708)}
        assert sum(m for m, _, _ in shapes) == 707

    def test_p2_has_one_bin(self):
        ctx = build_field_context(2)
        assert _dlog_spectrum(ctx, np.array([1])).tolist() == [1.0]
        assert _dlog_spectrum(ctx, np.array([], dtype=np.int64)).tolist() == [0.0]

    @given(energy_instance())
    @example((3, [1, 2], [2]))  # p = 3: no bin counts twice
    def test_identity_is_exact(self, case):
        p, xs, ys = case
        ctx = build_field_context(p)
        assert product_energy_via_characters(ctx, xs, ys) == product_energy(xs, ys, p)

    def test_identity_is_exact_at_p2(self):
        ctx = build_field_context(2)
        assert product_energy_via_characters(ctx, [1], [1]) == product_energy([1], [1], 2) == 1
        assert product_energy_via_characters(ctx, [], [1]) == product_energy([], [1], 2) == 0

    @pytest.mark.parametrize(
        "residual,raises", [(0.24, False), (-0.24, False), (0.26, True), (-0.26, True)]
    )
    def test_residual_guard(self, monkeypatch, residual, raises):
        # at p = 5 the bins j = 0, 1, 2 weigh 1, 2, 1, so a spectrum whose one
        # nonzero bin is a at j = 0 gives the identity the value a**4 / 4
        value = 3 + residual
        fake = np.array([(4 * value) ** 0.25, 0.0, 0.0])
        monkeypatch.setattr(charsums, "_dlog_spectrum", lambda ctx, members: fake)
        ctx = build_field_context(5)
        if raises:
            with pytest.raises(AssertionError):
                product_energy_via_characters(ctx, [1], [1])
        else:
            assert product_energy_via_characters(ctx, [1], [1]) == 3.0

    def test_profile_memory_is_bounded(self, monkeypatch):
        # the packed transform and the blockwise untangling stay under the
        # 38 MiB that one full-length complex FFT took at this prime
        ctx = build_field_context(999983)
        monkeypatch.setattr(charsums, "_last_spectrum", None)
        tracemalloc.start()
        try:
            burgess_profile(ctx, 33)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 38 * 2**20

    def test_gemm_memory_is_bounded(self, monkeypatch):
        # the phase tables and the row blocks stay under two complex arrays
        # of (p+1)/2 bins
        ctx = build_field_context(999983)
        assert charsums._gemm_pays(60, 499992)
        monkeypatch.setattr(charsums, "_last_spectrum", None)
        tracemalloc.start()
        try:
            burgess_profile(ctx, 60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20


class TestProductBound:
    @given(energy_instance())
    def test_cauchy_schwarz_exact(self, case):
        p, xs, ys = case
        j = product_energy(xs, ys, p)
        card = product_set(
            ResidueSet.from_members(p, xs), ResidueSet.from_members(p, ys)
        ).cardinality
        assert card * j >= (len(xs) * len(ys)) ** 2


class TestGrowthBound:
    def test_examples(self):
        assert product_growth_bound(16, 16, 5, 3) == pytest.approx(1.0)
        assert product_growth_bound(16, 1, 1, 2) == pytest.approx(1.0)
        value = product_growth_bound(101, 8, 10, 3)
        assert value == pytest.approx(min((101 / 8) ** (1 / 3), 10 / 8 ** (1 / 3)))
        assert value == pytest.approx(2.3285, abs=1e-3)  # the min picks the first branch

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            product_growth_bound(7, 0, 3, 2)


class TestBurgessProfile:
    def test_p5_len2(self):
        ctx = build_field_context(5)
        profile = burgess_profile(ctx, 2)
        assert profile.max_ratio == pytest.approx(sqrt(2) / 2, abs=1e-12)
        assert profile.argmax_j == 1

    def test_p3_len2_cancels(self):
        ctx = build_field_context(3)
        assert burgess_profile(ctx, 2).max_ratio == pytest.approx(0, abs=1e-12)

    def test_full_interval_orthogonality(self):
        ctx = build_field_context(7)
        assert burgess_profile(ctx, 6).max_ratio == pytest.approx(0, abs=1e-9)

    def test_matches_direct_maximum(self):
        for p in (11, 31, 101):
            ctx = build_field_context(p)
            for length in (2, p // 3, p - 2):
                expected = max(
                    abs(char_sum(ctx, j, range(1, length + 1))) / length
                    for j in range(1, p - 1)
                )
                assert burgess_profile(ctx, length).max_ratio == pytest.approx(
                    expected, abs=1e-9
                )

    @pytest.mark.parametrize("p, length", [(101, 7), (999983, 47), (999983, 353)])
    def test_logs_looked_up_once(self, monkeypatch, p, length):
        # one lookup feeds the spectrum and the direct sum, and the ratio is
        # bit for bit the direct char_sum's; 353 members take the packed FFT
        ctx = build_field_context(p)
        monkeypatch.setattr(charsums, "_last_spectrum", None)
        lookups = []
        index = FieldContext.index

        def counting_index(self, units):
            lookups.append(len(units))
            return index(self, units)

        monkeypatch.setattr(FieldContext, "index", counting_index)
        profile = burgess_profile(ctx, length)
        assert lookups == [length]
        monkeypatch.undo()
        members = range(1, length + 1)
        assert profile.max_ratio == abs(char_sum(ctx, profile.argmax_j, members)) / length

    def test_length_must_be_below_p(self):
        ctx = build_field_context(7)
        with pytest.raises(DomainError):
            burgess_profile(ctx, 7)

    def test_argmax_is_smallest_index(self):
        # conjugate characters tie, so the index never passes (p-1)/2
        for p in primes_in_range(3, 299):
            ctx = build_field_context(p)
            for length in range(1, min(12, p - 1) + 1):
                sums = [abs(char_sum(ctx, j, range(1, length + 1))) for j in range(1, p - 1)]
                top = max(sums)
                expected = 1 + next(i for i, v in enumerate(sums) if v >= top - 1e-9)
                argmax = burgess_profile(ctx, length).argmax_j
                assert argmax <= (p - 1) // 2
                assert argmax == expected, (p, length)


class TestEnergyDiagnostic:
    def test_fields_consistent(self):
        ctx = build_field_context(31)
        diag = energy_diagnostic(ctx, [1, 4, 9], 5, 2)
        assert diag.p == 31 and diag.card_x == 3 and diag.length == 5 and diag.n0 == 2
        assert diag.j_direct == product_energy([1, 4, 9], range(1, 6), 31)
        assert diag.j_char == pytest.approx(diag.j_direct, rel=1e-9)
        assert diag.j_direct >= diag.card_x * diag.length
        assert diag.bound_delta == pytest.approx(product_growth_bound(31, 3, 5, 2))
