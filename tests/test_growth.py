from math import gcd, isqrt, prod

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from prodcong.errors import DomainError, NotRepresentableError
from prodcong.growth import (
    build_generator_set,
    is_subgroup,
    least_power_nonresidue,
    nth_power_set,
    olson_bound_check,
    power_residue_index,
    power_set_sequence,
    represent_target,
    represent_unit,
)
from prodcong.residues import ResidueSet
from prodcong.rng import stream
from prodcong.smooth import build_smooth_table, greedy_factor
from reference_witness import growth_chain


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
        assert gen.base.witness == {1: (1,), 2: (2,), 3: (3,)}

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
        assert not rep.is_subgroup_at_stab

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
        rep.stable.verify()
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
        assert rep.is_subgroup_at_stab
        assert rep.phi % rep.subgroup_order == 0
        assert is_subgroup(rep.stable.base)

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

    def test_nth_power_set_matches_cards(self):
        gen = build_generator_set(7, cutoff=3)
        rep = power_set_sequence(gen)
        for n, card in enumerate(rep.cards, start=1):
            assert nth_power_set(gen, n).cardinality == card
        assert nth_power_set(gen, 40) == rep.stable.base


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


class TestLeastPowerNonresidue:
    def test_examples(self):
        assert least_power_nonresidue(7, 2).t == 3
        assert least_power_nonresidue(5, 2).t == 2
        assert least_power_nonresidue(7, 3).t == 2

    def test_cap_reported(self):
        res = least_power_nonresidue(7, 2)
        assert res.vinogradov_cap == pytest.approx(7 ** (1 / (4 * np.e ** (1 / 2))))

    def test_ell_one_rejected(self):
        with pytest.raises(DomainError):
            least_power_nonresidue(7, 1)

    def test_ell_must_divide(self):
        with pytest.raises(DomainError):
            least_power_nonresidue(7, 4)

    def test_oracle_small(self):
        for p in (5, 7, 11, 13, 17):
            for ell in (d for d in range(2, p) if (p - 1) % d == 0):
                residues = {pow(x, ell, p) for x in range(1, p)}
                expected = next(t for t in range(1, p) if t % p not in residues)
                assert least_power_nonresidue(p, ell).t == expected


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
                    rep = represent_target(p, lam, cutoff=2, report=report)
                    rep.verify()
                    assert len(rep.factors) == report.n_stab
                else:
                    with pytest.raises(NotRepresentableError):
                        represent_target(p, lam, cutoff=2, report=report)

    def test_composite_modulus_rejected(self):
        with pytest.raises(DomainError):
            represent_target(8, 3, cutoff=3)


class TestSmoothInclusion:
    def test_smooth_units_land_in_fifth_power_set(self):
        # every sqrt(m)-smooth unit x <= m, split greedily, multiplies back
        # inside A^5 for the sqrt cutoff
        table = build_smooth_table(500)
        for m in range(100, 500, 7):
            gen = build_generator_set(m, 0.5)
            a5 = nth_power_set(gen, 5)
            bound = isqrt(m)
            count = 0
            for x in range(1, m + 1):
                if gcd(x, m) != 1 or table.largest_prime_factor(x) > bound:
                    continue
                fac = greedy_factor(x, m, 0.5, 0.5, table=table)
                assert all(part in gen.base for part in fac.parts)
                assert x % m in a5
                count += 1
            assert a5.cardinality >= count
            assert count == table.psi_q(m, bound, m)
