import json
import tracemalloc
from math import gcd, isqrt, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prodcong.growth
import prodcong.residues
from prodcong.arith import floor_power, primes_in_range
from prodcong.cli import main
from prodcong.errors import DomainError, NotRepresentableError
from prodcong.growth import (
    _chain,
    _generated_order,
    _power_mod,
    build_generator_set,
    is_subgroup,
    olson_bound_check,
    power_residue_index,
    power_set_sequence,
    represent_target,
    represent_unit,
)
from prodcong.residues import ResidueSet, product_set
from prodcong.rng import stream
from prodcong.smooth import build_smooth_table, greedy_factor
from reference_growth import olson_reference, table_chain
from reference_witness import check_witnesses, growth_chain


def members(s) -> set:
    return set(np.asarray(s.members).tolist())


def brute_powers(m, gens, n):
    """All products of exactly n elements drawn from gens (with repetition)."""
    current = {1 % m}
    for _ in range(n):
        current = {x * g % m for x in current for g in gens}
    return current


class TestGeneratorSet:
    def test_cutoff_three_mod_seven(self):
        gen = build_generator_set(7, cutoff=3)
        assert members(gen.base) == {1, 2, 3}

    def test_gcd_filter_mod_eight(self):
        assert members(build_generator_set(8, cutoff=3).base) == {1, 3}

    def test_everything_filtered_mod_210(self):
        assert members(build_generator_set(210, cutoff=8).base) == {1}

    def test_exponent_form(self):
        gen = build_generator_set(100, 0.5)
        assert gen.cutoff == 10
        assert members(gen.base) == {1, 3, 7, 9}

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            build_generator_set(7)
        with pytest.raises(DomainError):
            build_generator_set(7, 0.5, cutoff=2)
        with pytest.raises(DomainError):
            build_generator_set(7, 1.5)


class TestIsSubgroup:
    def test_trivial(self):
        assert is_subgroup(ResidueSet.from_members(7, [1]))

    def test_not_closed(self):
        assert not is_subgroup(ResidueSet.from_members(7, [1, 2]))

    def test_powers_of_two_mod_seven(self):
        assert is_subgroup(ResidueSet.from_members(7, [1, 2, 4]))

    def test_full_units(self):
        assert is_subgroup(ResidueSet.from_members(7, range(1, 7)))
        assert is_subgroup(ResidueSet.from_members(12, [1, 5, 7, 11]))

    def test_noncoprime_rejected(self):
        with pytest.raises(DomainError):
            is_subgroup(ResidueSet.from_members(6, [1, 2]))


class TestPowerSetSequence:
    def test_reaches_full_group_mod_seven(self):
        rep = power_set_sequence(build_generator_set(7, cutoff=3))
        assert rep.cards == [3, 5, 6]
        assert rep.n_stab == 3
        assert rep.subgroup_order == 6 and rep.ell == 1
        assert rep.density == 1.0
        assert members(rep.stable) == set(range(1, 7))

    def test_stabilizes_below_full_group(self):
        rep = power_set_sequence(build_generator_set(7, cutoff=2))
        assert rep.cards == [2, 3, 3]
        assert rep.n_stab == 2
        assert members(rep.stable) == {1, 2, 4}
        assert rep.ell == 2  # the squares mod 7

    def test_involution_mod_eight(self):
        rep = power_set_sequence(build_generator_set(8, cutoff=3))
        assert rep.n_stab == 1
        assert members(rep.stable) == {1, 3}
        assert rep.ell is None  # composite modulus

    def test_unstabilized_status(self):
        rep = power_set_sequence(build_generator_set(67, cutoff=2), n_max=10)
        assert not rep.stabilized
        assert rep.n_stab is None

    def test_cards_match_bruteforce(self):
        for m, cutoff in [(7, 3), (7, 2), (8, 3), (15, 4), (31, 3), (45, 7)]:
            gen = build_generator_set(m, cutoff=cutoff)
            rep = power_set_sequence(gen)
            gens = members(gen.base)
            for n, card in enumerate(rep.cards, start=1):
                assert len(brute_powers(m, gens, n)) == card
            assert brute_powers(m, gens, rep.n_stab) == members(rep.stable)

    def test_witnesses_verify_and_use_generators(self):
        gen = build_generator_set(35, 0.5)
        rep = power_set_sequence(gen)
        check_witnesses(rep.stable)
        cutoff = gen.cutoff
        for factors in rep.stable.witness.values():
            assert all(1 <= f <= cutoff and gcd(f, 35) == 1 for f in factors)
            assert len(factors) <= rep.n_stab
        again = power_set_sequence(build_generator_set(35, 0.5))
        assert again.stable.witness == rep.stable.witness

    @given(
        st.integers(min_value=2, max_value=300),
        st.integers(min_value=2, max_value=17),
    )
    def test_monotone_lagrange_closure(self, m, cutoff):
        rep = power_set_sequence(build_generator_set(m, cutoff=cutoff), n_max=512)
        assert rep.stabilized
        assert rep.cards == sorted(rep.cards)
        assert rep.phi % rep.subgroup_order == 0
        assert is_subgroup(rep.stable)

    @given(
        st.integers(min_value=4, max_value=400).filter(
            lambda m: any(m % d == 0 for d in range(2, isqrt(m) + 1))
        ),
        st.integers(min_value=2, max_value=13),
    )
    def test_witnesses_equal_reference_chain(self, m, cutoff):
        rep = power_set_sequence(build_generator_set(m, cutoff=cutoff), n_max=512)
        cards, n_stab, witness = growth_chain(m, cutoff, 512)
        assert (rep.cards, rep.n_stab) == (cards, n_stab)
        assert rep.stable.witness == witness

    def test_witness_view_is_read_only_and_keyed_by_members(self):
        rep = power_set_sequence(build_generator_set(7, cutoff=2))
        with pytest.raises(TypeError):
            rep.stable.witness[3] = (3,)
        with pytest.raises(KeyError):
            rep.stable.witness[3]  # a quadratic nonresidue mod 7
        assert dict(rep.stable.witness) == {1: (1,), 2: (2,), 4: (2, 2)}
        assert power_set_sequence(build_generator_set(7, cutoff=2), with_witness=False).stable.witness is None

    def test_truncated_chain_matches_cards(self):
        gen = build_generator_set(7, cutoff=3)
        rep = power_set_sequence(gen)
        for n, card in enumerate(rep.cards, start=1):
            assert power_set_sequence(gen, n_max=n, with_witness=False).stable.cardinality == card
        assert power_set_sequence(gen, n_max=40, with_witness=False).stable == rep.stable


class TestOlson:
    def test_generating_triple(self):
        check = olson_bound_check(ResidueSet.from_members(7, [1, 2, 3]))
        assert members(check.group) == set(range(1, 7))
        assert check.h_actual == 3
        assert check.h_bound == 3.0

    def test_whole_group_is_order_one(self):
        g = ResidueSet.from_members(7, range(1, 7))
        check = olson_bound_check(g)
        assert check.h_actual == 1 and check.h_bound == 2.0

    def test_pair(self):
        check = olson_bound_check(ResidueSet.from_members(7, [1, 2]))
        assert check.h_actual == 2 and check.h_bound == 2.0

    def test_requires_identity(self):
        with pytest.raises(DomainError):
            olson_bound_check(ResidueSet.from_members(7, [2, 4]))

    def test_random_instances_respect_bound(self):
        gen = stream(5, "growth-olson-small")
        for _ in range(60):
            m = int(gen.integers(2, 301))
            units = [x for x in range(1, m) if gcd(x, m) == 1] or [1 % m]
            extra = int(gen.integers(0, len(units)))
            chosen = gen.choice(np.array(units), size=extra, replace=False) if extra else []
            x = ResidueSet.from_members(m, sorted({1, *map(int, chosen)}))
            check = olson_bound_check(x)
            assert check.h_actual <= max(check.h_bound, 1)


class TestPowerResidueIndex:
    def test_full_group(self):
        assert power_residue_index(ResidueSet.from_members(7, range(1, 7))) == 1

    def test_squares(self):
        assert power_residue_index(ResidueSet.from_members(7, [1, 2, 4])) == 2

    def test_trivial_subgroup(self):
        assert power_residue_index(ResidueSet.from_members(7, [1])) == 6

    def test_not_subgroup_rejected(self):
        with pytest.raises(DomainError):
            power_residue_index(ResidueSet.from_members(7, [1, 2]))

    def test_index_times_order(self):
        for p in (5, 7, 13, 31):
            for d in sorted({d for d in range(1, p) if (p - 1) % d == 0}):
                sub = ResidueSet.from_members(p, {pow(x, d, p) for x in range(1, p)})
                ell = power_residue_index(sub)
                assert ell * sub.cardinality == p - 1


class TestPrimeCertificate:
    """For a prime p the stabilized set is certified by element orders: it
    holds 1 and as many members as the group A generates, lcm ord(a)."""

    def test_every_prime_below_3000(self, monkeypatch):
        def refuse(s):
            raise AssertionError("the certificate needs no pass over the members")

        checked = 0
        for p in primes_in_range(2, 2999):
            for cutoff in sorted({2, floor_power(p, 0.3), floor_power(p, 0.5)}):
                gen = build_generator_set(p, cutoff=cutoff)
                with monkeypatch.context() as mp:
                    mp.setattr(prodcong.growth, "power_residue_index", refuse)
                    rep = power_set_sequence(gen, n_max=p + 1, with_witness=False)
                assert rep.stabilized
                assert rep.ell == power_residue_index(rep.stable), (p, cutoff)
                assert rep.subgroup_order == _generated_order(p, gen.base.members.tolist())
                checked += 1
        assert checked == 1278

    def test_generated_order_matches_brute_force(self):
        for p in (2, 3, 7, 13, 31, 61, 101):
            for gens in ([1], [1, 2], [1, p - 1], [1, 3, 5], list(range(1, p))):
                gens = [g % p for g in gens if g % p]
                assert _generated_order(p, gens) == len(generated_subgroup(p, set(gens)))

    def test_wrong_order_is_refused(self, monkeypatch):
        monkeypatch.setattr(prodcong.growth, "_generated_order", lambda p, gens: p - 1)
        with pytest.raises(AssertionError, match="generators generate"):
            power_set_sequence(build_generator_set(7, cutoff=2))  # the squares, order 3


class TestRepresentUnit:
    def test_mod_seven(self):
        rep = represent_unit(7, cutoff=2)
        assert rep.factors == (2, 2, 2, 1)
        assert prod(rep.factors) % 7 == 1

    def test_mod_eight(self):
        assert represent_unit(8, cutoff=3).factors == (3, 3)

    def test_mod_five(self):
        rep = represent_unit(5, cutoff=2)
        assert rep.factors == (2, 2, 2, 2)
        assert prod(rep.factors) % 5 == 1

    def test_leading_factor_never_one(self):
        for m in range(5, 200):
            gen = build_generator_set(m, 0.5)
            if gen.base.cardinality <= 1:
                continue
            rep = represent_unit(m, 0.5, n_max=512)
            rep.verify()
            assert rep.factors[0] != 1
            assert len(rep.factors) % 2 == 0

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            represent_unit(210, cutoff=8)


class TestRepresentTarget:
    def test_square_mod_seven(self):
        rep = represent_target(7, 4, cutoff=3)
        assert rep.factors == (2, 2, 1)

    def test_identity_is_all_ones(self):
        rep = represent_target(7, 1, cutoff=3)
        assert rep.factors == (1, 1, 1)

    def test_nonresidue_rejected_with_index(self):
        with pytest.raises(NotRepresentableError) as exc_info:
            represent_target(7, 3, cutoff=2)
        assert exc_info.value.ell == 2

    def test_reachability_matches_power_residues(self):
        for p in (13, 17, 29):
            report = power_set_sequence(build_generator_set(p, cutoff=2), n_max=512)
            ell = report.ell
            residues = {pow(x, ell, p) for x in range(1, p)}
            for lam in range(1, p):
                if lam in residues:
                    rep = report.represent(lam)
                    rep.verify()
                    assert len(rep.factors) == report.n_stab
                else:
                    with pytest.raises(NotRepresentableError):
                        report.represent(lam)

    def test_equals_report_represent(self):
        for p in primes_in_range(2, 59):
            for k in range(2, 7):
                report = power_set_sequence(build_generator_set(p, cutoff=k), n_max=p)
                for t in range(1, p):
                    try:
                        want = report.represent(t)
                    except NotRepresentableError as exc:
                        with pytest.raises(NotRepresentableError) as got:
                            represent_target(p, t, cutoff=k)
                        assert got.value.ell == exc.ell
                    else:
                        assert represent_target(p, t, cutoff=k) == want

    def test_report_represent_composite_modulus(self):
        report = power_set_sequence(build_generator_set(15, cutoff=2))  # <2> = {1, 2, 4, 8}
        assert report.represent(8).factors == (2, 2, 2)
        with pytest.raises(NotRepresentableError, match="not in the stabilized subgroup") as exc:
            report.represent(7)
        assert exc.value.ell is None

    def test_report_represent_needs_witnesses_and_stabilization(self):
        plain = power_set_sequence(build_generator_set(7, cutoff=3), with_witness=False)
        with pytest.raises(DomainError):
            plain.represent(4)
        unstable = power_set_sequence(build_generator_set(67, cutoff=2), n_max=10)
        with pytest.raises(DomainError):
            unstable.represent(4)

    def test_composite_modulus_rejected(self):
        with pytest.raises(DomainError, match="modulus 8 is not prime"):
            represent_target(8, 3, cutoff=3)


class TestSmoothInclusion:
    def test_smooth_units_land_in_fifth_power_set(self):
        # every sqrt(m)-smooth unit x <= m, split greedily, multiplies back
        # inside A^5 for the sqrt cutoff
        table = build_smooth_table(500)
        for m in range(100, 500, 7):
            gen = build_generator_set(m, 0.5)
            a5 = power_set_sequence(gen, n_max=5, with_witness=False).stable
            bound = isqrt(m)
            xs = [x for x in range(1, m + 1) if gcd(x, m) == 1 and table.lpf[x] <= bound]
            parts, k, ok = greedy_factor(xs, m, 0.5, 0.5, table=table)
            assert ok.all()
            for x, row, k_x in zip(xs, parts.tolist(), k.tolist()):
                assert all(part in gen.base for part in row[:k_x])
                assert x % m in a5
            assert a5.cardinality >= len(xs)
            units = np.gcd(np.arange(1, m + 1), m) == 1
            assert len(xs) == np.count_nonzero(units & (table.lpf[1 : m + 1] <= bound))


def closed_under_products(m, s) -> bool:
    return all(a * b % m in s for a in s for b in s)


def generated_subgroup(m, xs) -> set:
    group = {1 % m} | set(xs)
    while True:
        grown = group | {a * b % m for a in group for b in group}
        if grown == group:
            return group
        group = grown


composites = st.integers(min_value=4, max_value=300).filter(
    lambda m: any(m % d == 0 for d in range(2, isqrt(m) + 1))
)


class TestChainKernel:
    @given(composites, st.data())
    def test_olson_matches_reference_loop(self, m, data):
        units = [x for x in range(1, m) if gcd(x, m) == 1]
        chosen = data.draw(st.sets(st.sampled_from(units), max_size=12))
        x = ResidueSet.from_members(m, {1, *chosen})
        check = olson_bound_check(x)
        assert (check.h_actual, check.h_bound, check.group) == olson_reference(x)

    def test_olson_modulus_one(self):
        x = ResidueSet.from_members(1, [0])
        check = olson_bound_check(x)
        assert (check.h_actual, check.h_bound, check.group) == (1, 2.0, x)

    @given(st.integers(min_value=2, max_value=80), st.data())
    def test_is_subgroup_matches_bruteforce(self, m, data):
        units = [x for x in range(1, m) if gcd(x, m) == 1]
        xs = data.draw(st.sets(st.sampled_from(units), min_size=1, max_size=6))
        group = generated_subgroup(m, xs)
        g = data.draw(st.sampled_from(units))
        coset = {g * h % m for h in group}
        for s in (xs, group, coset, set(units)):
            assert is_subgroup(ResidueSet.from_members(m, s)) == closed_under_products(m, s)

    def test_power_residue_index_rejects_cosets(self):
        for p in (7, 13, 31, 61):
            for d in (d for d in range(1, p - 1) if (p - 1) % d == 0):
                sub = {x for x in range(1, p) if pow(x, d, p) == 1}
                g = next(x for x in range(2, p) if x not in sub)
                coset = ResidueSet.from_members(p, {g * h % p for h in sub})
                assert coset.cardinality == d
                with pytest.raises(DomainError):
                    power_residue_index(coset)

    def test_power_mod_beyond_int64_products(self):
        m = (1 << 61) - 1
        xs = np.array([2, 3, m - 1, 123456789123], dtype=np.int64)
        for e in (0, 1, 5, m - 2):
            assert list(_power_mod(xs, e, m)) == [pow(int(x), e, m) for x in xs]

    def test_closure_needs_no_quadratic_table(self):
        # cutoff 7 mod 8039 generates the 4019 squares; a |S| x |S| closure
        # table would be 129 MB
        tracemalloc.start()
        try:
            rep = power_set_sequence(build_generator_set(8039, cutoff=7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rep.subgroup_order, rep.ell, rep.stabilized) == (4019, 2, True)
        assert peak < 16 * 2**20


def chain_case(data):
    """(m, gens, n_max): the units up to a cutoff 1-17, A = {1}, A = {1, a}
    (whose chain takes ord_m(a) - 1 steps), or an olson-suite style random
    set of units with 1, for prime or composite m <= 400, with n_max either
    truncating or past every possible step."""
    m = data.draw(
        st.one_of(st.sampled_from(primes_in_range(2, 400)), st.integers(min_value=2, max_value=400))
    )
    units = np.flatnonzero(np.gcd(np.arange(m), m) == 1)
    kind = data.draw(st.sampled_from(["cutoff", "one", "pair", "random"]))
    if kind == "cutoff":
        gens = build_generator_set(m, cutoff=data.draw(st.integers(1, 17))).base.members
    elif kind == "one" or units.size == 1:
        gens = np.array([1])
    elif kind == "pair":
        gens = np.array([1, data.draw(st.sampled_from(units[1:].tolist()))])
    else:
        extra = data.draw(st.integers(0, units.size - 1))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        chosen = rng.choice(units, size=extra, replace=False) if extra else []
        gens = ResidueSet.from_members(m, {1, *map(int, chosen)}).members
    n_max = data.draw(st.one_of(st.integers(1, 12), st.just(m + 1)))
    return m, gens, n_max


def chain_tuple(m, gens, n_max):
    level, cards, n_stab = _chain(m, gens, n_max)
    return level.tolist(), cards, n_stab


class TestFrontierStep:
    """The frontier-sized chain step against the table-step reference."""

    @given(st.data())
    def test_chain_matches_table_steps(self, data):
        m, gens, n_max = chain_case(data)
        level, cards, n_stab = table_chain(m, gens, n_max)
        assert chain_tuple(m, gens, n_max) == (level.tolist(), cards, n_stab)

    @settings(max_examples=30)
    @given(st.data())
    def test_each_path_matches_table_steps(self, data):
        m, gens, n_max = chain_case(data)
        level, cards, n_stab = table_chain(m, gens, n_max)
        expected = (level.tolist(), cards, n_stab)
        # a huge scalar cap forces the scalar path; 0 and 1 send every step,
        # or every step with more than one product, to the pairwise mask
        for scalar in (0, 1, 1 << 40):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(prodcong.growth, "_SCALAR_CELLS", scalar)
                assert chain_tuple(m, gens, n_max) == expected

    def test_powers_of_two_at_scale(self, capsys):
        # 2 has order 99999 = 3^2 * 41 * 271 mod 199999, and A^n = {1, 2, 4,
        # ..., 2^n}, so 2^j first appears in A^max(j, 1) and the chain stabilizes
        # at n = 99998, when the subgroup <2> is complete
        p, order = 199999, 99999
        level, cards, n_stab = _chain(p, np.array([1, 2]), p + 1)
        assert pow(2, order, p) == 1 and all(pow(2, order // q, p) != 1 for q in (3, 41, 271))
        powers = [pow(2, j, p) for j in range(order)]
        assert level[powers].tolist() == [1] + list(range(1, order))
        assert (n_stab, cards[-1], np.count_nonzero(level)) == (order - 1, order, order)
        assert main(["growth", "--m", "199999", "--cutoff", "2", "--n-max", "200000", "--format", "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert (row["n_stab"], row["subgroup_order"], row["ell"]) == (order - 1, order, 2)
        assert main(["growth", "--m", "199999", "--cutoff", "2", "--n-max", "1000", "--format", "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert (row["n_stab"], row["subgroup_order"], row["ell"]) == (None, 1001, None)

    def test_small_layers_build_no_table(self, monkeypatch):
        calls = {"table": 0, "in_chain": 0}
        table_mask = prodcong.residues._table_mask
        chain = prodcong.growth._chain

        def counted_table(*args):
            calls["table"] += 1
            return table_mask(*args)

        def counted_chain(*args):
            before = calls["table"]
            out = chain(*args)
            calls["in_chain"] += calls["table"] - before
            return out

        monkeypatch.setattr(prodcong.residues, "_table_mask", counted_table)
        monkeypatch.setattr(prodcong.growth, "_chain", counted_chain)
        rep = power_set_sequence(build_generator_set(3931, cutoff=2), n_max=4000)
        assert (rep.n_stab, rep.subgroup_order) == (3929, 3930)
        assert calls["in_chain"] == 0
        certificate = calls["table"]
        product_set(rep.stable, build_generator_set(3931, cutoff=2).base)
        assert calls["table"] == 2 * certificate

    def test_large_steps_keep_the_table(self, monkeypatch):
        # at p = 1009 the first step multiplies A by A, 300 x 300 = 90000
        # cells, over the 22528 at which a product set takes the convolution;
        # a chain step still builds the table
        def refuse(*args):
            raise AssertionError("a chain step must not take the convolution")

        monkeypatch.setattr(prodcong.residues, "_dlog_product_mask", refuse)
        p = 1009
        others = stream(p, "big-steps").choice(np.arange(2, p), 299, replace=False)
        gens = np.sort(np.concatenate(([1], others)))
        level, cards, n_stab = _chain(p, gens, p + 1)
        expected_level, expected_cards, expected_n_stab = table_chain(p, gens, p + 1)
        assert (level.tolist(), cards, n_stab) == (
            expected_level.tolist(), expected_cards, expected_n_stab
        )
