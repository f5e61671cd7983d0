"""Command-line harnesses with deterministic JSON/CSV report emission.

Exit codes: 0 success/solvable, 3 decided-negative (unsolvable instance,
unrepresentable target, failed check), 2 usage or domain error, 4 resource
cap exceeded.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

import numpy as np

from .arith import build_field_context, euler_phi, factorize, floor_power, is_prime
from .charsums import burgess_profile, energy_diagnostic
from .errors import DomainError, NotRepresentableError, ResourceError
from .growth import (
    build_generator_set,
    olson_bound_check,
    power_set_sequence,
    represent_target,
    represent_unit,
)
from .report import Report
from .residues import Interval, ResidueSet, coverage_check, units_mask
from .rng import stream
from .smooth import _greedy_check
from .smooth import _shared as _shared_smooth_table
from .solver import SolveInstance, abc_scan, solve, threshold_scan

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NEGATIVE = 3
EXIT_RESOURCE = 4


def _parse_prime(value: int) -> int:
    if not is_prime(value):
        raise DomainError("modulus must be prime")
    return value


def _parse_prime_list(spec: str) -> list[int]:
    primes = [_parse_prime(int(tok)) for tok in spec.split(",") if tok]
    if not primes:
        raise DomainError("need at least one prime")
    return primes


def _parse_intervals(spec: str, p: int) -> list[Interval]:
    out = []
    for token in spec.split(","):
        try:
            offset, length = map(int, token.split(":"))
        except ValueError as exc:
            raise DomainError(f"bad interval spec {token!r} (expected L:N)") from exc
        out.append(Interval(offset, length, p))
    return out


def _span(one: int | None, lo: int | None, hi: int | None, name: str) -> list[int]:
    if one is not None:
        return [one]
    if lo is None or hi is None:
        raise DomainError(f"give --{name} or both --{name}-min and --{name}-max")
    if lo > hi:
        raise DomainError(f"--{name}-min must not exceed --{name}-max")
    return list(range(lo, hi + 1))


def cmd_solve(args) -> tuple[Report, int]:
    p = _parse_prime(args.p)
    if args.intervals:
        intervals = _parse_intervals(args.intervals, p)
    elif args.len is not None:
        intervals = [Interval(0, args.len, p) for _ in range(13)]
    else:
        raise DomainError("give --intervals or --len")
    instance = SolveInstance(p, args.a, args.b, args.c, tuple(intervals[:6]), tuple(intervals[6:]))
    if args.anchored and 1 not in instance.right[-1]:
        raise DomainError("last right interval must contain 1")
    result = solve(instance)
    witness = "" if result.witness is None else ",".join(map(str, result.witness))
    report = Report(
        command="solve",
        config={
            "p": p,
            "a": instance.a,
            "b": instance.b,
            "c": instance.c,
            "intervals": ",".join(f"{iv.offset}:{iv.length}" for iv in instance.intervals),
            "anchored": bool(args.anchored),
        },
        rows=[
            {
                "p": p,
                "a": instance.a,
                "b": instance.b,
                "c": instance.c,
                "solvable": result.solvable,
                "witness": witness,
                "left_card": result.left_card,
                "right_card": result.right_card,
            }
        ],
        summary={"solvable": result.solvable},
    )
    return report, EXIT_OK if result.solvable else EXIT_NEGATIVE


def cmd_scan(args) -> tuple[Report, int]:
    primes = _parse_prime_list(args.p)
    len_range = _span(args.len, args.len_min, args.len_max, "len")
    rows = []
    failures = []
    failure_count = 0
    for p in primes:
        for n in len_range:
            res = abc_scan(p, [n] * 13, sample=args.sample, seed=args.seed)
            rows.append(
                {
                    "p": p,
                    "len": n,
                    "total": res.total,
                    "solvable": res.solvable,
                    "fraction": res.fraction,
                }
            )
            failure_count += res.failure_count
            failures.extend(
                {"p": p, "len": n, "a": a, "b": b, "c": c} for a, b, c in res.failures[:5]
            )
    report = Report(
        command="scan",
        config={
            "p": primes,
            "lengths": len_range,
            "sample": args.sample,
            "seed": args.seed,
        },
        rows=rows,
        summary={"failure_count": failure_count, "example_failures": failures[:20]},
    )
    return report, EXIT_OK


def cmd_threshold(args) -> tuple[Report, int]:
    p = _parse_prime(args.p)
    res = threshold_scan(p, max_len=args.max_len)
    rows = [
        {"p": p, "len": row.length, "total": row.total, "solvable": row.solvable, "fraction": row.fraction}
        for row in res.curve
    ]
    report = Report(
        command="threshold",
        config={"p": p, "max_len": args.max_len},
        rows=rows,
        summary={
            "minimal_len": res.minimal_len,
            "p_quarter": p**0.25,
            "ratio_to_p_quarter": None if res.minimal_len is None else res.minimal_len / p**0.25,
        },
    )
    return report, EXIT_OK


def cmd_growth(args) -> tuple[Report, int]:
    m_range = _span(args.m, args.m_min, args.m_max, "m")
    rows = []
    max_n_stab = 0
    unstabilized = 0
    for m in m_range:
        gen = build_generator_set(m, args.c, cutoff=args.cutoff)
        rep = power_set_sequence(gen, n_max=args.n_max, with_witness=False)
        if rep.stabilized:
            max_n_stab = max(max_n_stab, rep.n_stab)
        else:
            unstabilized += 1
        rows.append(
            {
                "m": m,
                "card_A": rep.cards[0],
                "n_stab": rep.n_stab,
                "subgroup_order": rep.subgroup_order,
                "density": rep.density,
                "ell": rep.ell,
                "degenerate": rep.cards[0] <= 1,
            }
        )
    report = Report(
        command="growth",
        config={
            "m": m_range if len(m_range) > 1 else m_range[0],
            "c": args.c,
            "cutoff": args.cutoff,
            "n_max": args.n_max,
        },
        rows=rows,
        summary={"count": len(rows), "max_n_stab": max_n_stab, "unstabilized": unstabilized},
    )
    return report, EXIT_OK


def cmd_charsum(args) -> tuple[Report, int]:
    primes = _parse_prime_list(args.p)
    # checked before any field context is built, so a refusal costs no
    # primitive root or table and a prime over the cap still exits 2
    if args.n0 < 1:
        raise DomainError("n0 must be >= 1")
    if args.len < 1:
        raise DomainError("interval length must satisfy 1 <= len < p")
    if args.len >= min(primes):
        raise DomainError("interval length must be below p")
    rows = []
    for p in primes:
        ctx = build_field_context(p)
        profile = burgess_profile(ctx, args.len)
        diag = energy_diagnostic(ctx, range(1, args.len + 1), args.len, args.n0)
        rows.append(
            {
                "p": p,
                "len": args.len,
                "n0": args.n0,
                "max_ratio": profile.max_ratio,
                "argmax_j": profile.argmax_j,
                "j_direct": diag.j_direct,
                "j_char": diag.j_char,
                "bound_delta": diag.bound_delta,
            }
        )
    report = Report(
        command="charsum",
        config={"p": primes, "len": args.len, "n0": args.n0},
        rows=rows,
        summary={"count": len(rows)},
    )
    return report, EXIT_OK


def cmd_smooth(args) -> tuple[Report, int]:
    m = args.m
    if m < 2:
        raise DomainError("m must be >= 2")
    if not 0 < args.c0 < 1:
        raise DomainError("c0 must lie in (0, 1)")
    table = _shared_smooth_table(m)
    bound = floor_power(m, args.c0)
    # the smooth units: x <= m is a unit unless a prime divisor of m divides it
    eligible = table.lpf[1 : m + 1] <= bound
    for q, _ in factorize(m):
        eligible[q - 1 :: q] = False
    eligible = np.flatnonzero(eligible) + 1
    psi_coprime = len(eligible)
    phi = euler_phi(m)
    row = {
        "m": m,
        "c0": args.c0,
        "smooth_bound": bound,
        "psi": table.psi(m, bound),
        "psi_coprime": psi_coprime,
        "phi": phi,
        "delta_hat": psi_coprime / phi,
        "greedy_checked": None,
        "greedy_max_k": None,
        "greedy_failures": None,
    }
    failures = 0
    if args.check_greedy:
        checked, max_k, failures = _greedy_check(eligible, m, args.c0, args.c0, table)
        assert checked == psi_coprime
        row.update(greedy_checked=checked, greedy_max_k=max_k, greedy_failures=failures)
    report = Report(
        command="smooth",
        config={"m": m, "c0": args.c0, "check_greedy": bool(args.check_greedy)},
        rows=[row],
        summary={"delta_hat": row["delta_hat"], "greedy_failures": row["greedy_failures"]},
    )
    return report, EXIT_NEGATIVE if failures else EXIT_OK


def cmd_coverage(args) -> tuple[Report, int]:
    p = _parse_prime(args.p)
    if args.random < 1:
        raise DomainError("--random must be >= 1")
    if p < 5:
        # sizes are drawn from 1..p-1 until their product exceeds p**3,
        # which (p-1)**4 <= p**3 rules out
        raise DomainError("coverage needs p >= 5")
    gen = stream(args.seed, f"coverage-p{p}")
    units = np.arange(1, p)
    rows = []
    counterexamples = 0
    for trial in range(args.random):
        while True:
            sizes = [int(s) for s in gen.integers(1, p, size=4)]
            if sizes[0] * sizes[1] * sizes[2] * sizes[3] > p**3:
                break
        sets = [
            ResidueSet.from_members(p, gen.choice(units, size=s, replace=False))
            for s in sizes
        ]
        res = coverage_check(*sets, p)
        if res.hypothesis_met and not res.covers:
            counterexamples += 1
        rows.append(
            {
                "trial": trial,
                "card_a": sizes[0],
                "card_b": sizes[1],
                "card_c": sizes[2],
                "card_d": sizes[3],
                "hypothesis_met": res.hypothesis_met,
                "covers": res.covers,
                "missing_count": len(res.missing),
            }
        )
    report = Report(
        command="coverage",
        config={"p": p, "random": args.random, "seed": args.seed},
        rows=rows,
        summary={"trials": len(rows), "counterexamples": counterexamples},
    )
    return report, EXIT_NEGATIVE if counterexamples else EXIT_OK


def cmd_represent(args) -> tuple[Report, int]:
    m = args.m
    if m < 2:
        raise DomainError("m must be >= 2")
    target = args.target % m
    try:
        if target == 1:
            rep = represent_unit(m, args.c, cutoff=args.cutoff, n_max=args.n_max)
        else:
            rep = represent_target(m, target, args.c, cutoff=args.cutoff, n_max=args.n_max)
    except NotRepresentableError as exc:
        rows = []
        summary = {"representable": False, "ell": exc.ell, "reason": str(exc)}
    else:
        rows = [
            {
                "m": m,
                "target": target,
                "cutoff": rep.bound,
                "k": rep.k,
                "factors": ",".join(map(str, rep.factors)),
                "verified": True,
            }
        ]
        summary = {"representable": True}
    report = Report(
        command="represent",
        config={"m": m, "target": target, "c": args.c, "cutoff": args.cutoff},
        columns=["m", "target", "cutoff", "k", "factors", "verified"],
        rows=rows,
        summary=summary,
    )
    return report, EXIT_OK if summary["representable"] else EXIT_NEGATIVE


def cmd_olson_suite(args) -> tuple[Report, int]:
    if args.count < 1:
        raise DomainError("count must be >= 1")
    if args.m_max < 2:
        raise DomainError("m-max must be >= 2")
    gen = stream(args.seed, "olson-suite")
    rows = []
    violations = 0
    for trial in range(args.count):
        m = int(gen.integers(2, args.m_max + 1))
        mask = np.zeros(m, dtype=bool)
        mask[1] = True
        if m > 2:
            units = np.flatnonzero(units_mask(m))
            extra = int(gen.integers(0, len(units)))
            if extra:
                mask[gen.choice(units, size=extra, replace=False)] = True
        x = ResidueSet(m, mask)
        check = olson_bound_check(x)
        ok = check.h_actual <= max(check.h_bound, 1)
        violations += not ok
        rows.append(
            {
                "trial": trial,
                "m": m,
                "card_x": x.cardinality,
                "group_order": check.group.cardinality,
                "h_actual": check.h_actual,
                "h_bound": check.h_bound,
                "ok": ok,
            }
        )
    report = Report(
        command="olson-suite",
        config={"count": args.count, "m_max": args.m_max, "seed": args.seed},
        rows=rows,
        summary={"trials": len(rows), "violations": violations},
    )
    return report, EXIT_NEGATIVE if violations else EXIT_OK


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", default=None, help="write the report here instead of stdout")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


@cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args leaves the parser unchanged, and
    # building it costs far more than one parse.
    parser = argparse.ArgumentParser(
        prog="prodcong",
        description="Exact experiments with products of small residues: solvers, scans, and diagnostics.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("solve", help="decide one 13-interval instance")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--a", type=int, required=True)
    s.add_argument("--b", type=int, required=True)
    s.add_argument("--c", type=int, required=True)
    s.add_argument("--intervals", help="13 comma-separated L:N specs")
    s.add_argument("--len", type=int, help="uniform length shorthand, anchored at {1..n}")
    s.add_argument("--anchored", action="store_true", help="require 1 in the last right interval")
    _add_common(s)
    s.set_defaults(func=cmd_solve)

    s = subs.add_parser("scan", help="solvable fraction over coefficient triples")
    s.add_argument("--p", required=True, help="prime or comma-separated primes")
    s.add_argument("--len", type=int)
    s.add_argument("--len-min", type=int)
    s.add_argument("--len-max", type=int)
    s.add_argument("--sample", type=int, default=None)
    s.add_argument("--seed", type=int, default=0)
    _add_common(s)
    s.set_defaults(func=cmd_scan)

    s = subs.add_parser("threshold", help="smallest uniform length with a fully solvable scan")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--max-len", type=int, default=None)
    _add_common(s)
    s.set_defaults(func=cmd_threshold)

    s = subs.add_parser("growth", help="iterated product-set growth across moduli")
    s.add_argument("--m", type=int)
    s.add_argument("--m-min", type=int)
    s.add_argument("--m-max", type=int)
    s.add_argument("--c", type=float)
    s.add_argument("--cutoff", type=int)
    s.add_argument("--n-max", type=int, default=64)
    _add_common(s)
    s.set_defaults(func=cmd_growth)

    s = subs.add_parser("charsum", help="character-sum and collision-energy diagnostics")
    s.add_argument("--p", required=True, help="prime or comma-separated primes")
    s.add_argument("--len", type=int, required=True)
    s.add_argument("--n0", type=int, default=2)
    _add_common(s)
    s.set_defaults(func=cmd_charsum)

    s = subs.add_parser("smooth", help="smooth counts and the greedy factorization suite")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--c0", type=float, default=0.5)
    s.add_argument("--check-greedy", action="store_true")
    _add_common(s)
    s.set_defaults(func=cmd_smooth)

    s = subs.add_parser("coverage", help="random product-sum coverage trials")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--random", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    _add_common(s)
    s.set_defaults(func=cmd_coverage)

    s = subs.add_parser("represent", help="factor a target into small units")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--target", type=int, required=True)
    s.add_argument("--c", type=float)
    s.add_argument("--cutoff", type=int)
    s.add_argument("--n-max", type=int, default=64)
    _add_common(s)
    s.set_defaults(func=cmd_represent)

    s = subs.add_parser("olson-suite", help="random basis-order bound checks")
    s.add_argument("--count", type=int, default=200)
    s.add_argument("--m-max", type=int, default=500)
    s.add_argument("--seed", type=int, default=0)
    _add_common(s)
    s.set_defaults(func=cmd_olson_suite)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        report, code = args.func(args)
        report.write(args.out, args.format)
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (DomainError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
