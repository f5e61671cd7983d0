"""prodcong benchmark: seeded streams of `prodcong` jobs, run in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve-witness --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each job is one call of `prodcong.cli.main(argv)` with a generated argv; one
client runs them as a closed loop (the next job starts when the previous one
returns). After the timed loop every report body is checked by the
benchmark's own code (checks.py). With `--trace 0` the last line of output is
a JSON object with the end-to-end metrics; with `--trace 1` the same jobs run
once untraced and once with spans around each layer's public functions
(tracing.py), and the JSON object holds the per-layer metrics. Spans go to a
sidecar file under .perfbench/. `--workload all` runs every workload both
ways, each in a fresh process, and prints one table.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# The benchmark's own modules import numpy, so they are imported inside the
# functions below, after main() has timed the program's import as set-up.

MIN_JOBS = 100  # at least ten latency samples beyond p90; also the fingerprint prefix
TRACE_JOBS = 100  # jobs in a traced run, so its counts repeat exactly
SETUP_REPS = 5
JOBS_PER_SECOND_CAP = 100  # jobs generated per measured second; the loop cycles beyond
SIDECAR_DIR = ".perfbench"

WARMUP = {
    "solve-witness": [
        ["solve", "--p", "101", "--a", "2", "--b", "3", "--c", "5", "--intervals", ",".join(["4:3"] * 13)],
    ],
    "growth-represent": [
        ["represent", "--m", "101", "--target", "3", "--cutoff", "3", "--n-max", "101"],
        ["represent", "--m", "105", "--target", "1", "--c", "0.5", "--n-max", "105"],
        ["smooth", "--m", "500", "--c0", "0.4", "--check-greedy"],
    ],
    "scan-sweep": [
        ["scan", "--p", "31", "--len", "2"],
        ["threshold", "--p", "31"],
        ["coverage", "--p", "31", "--random", "1"],
        ["olson-suite", "--count", "3", "--m-max", "30"],
        ["charsum", "--p", "1009", "--len", "5"],
        ["growth", "--m-min", "100", "--m-max", "103", "--cutoff", "3", "--n-max", "103"],
    ],
}


def import_program(root: Path):
    """Import the program from the checkout's src/ (the package is not installed)."""
    src = root / "src"
    if not (src / "prodcong" / "__init__.py").is_file():
        raise ImportError(f"no prodcong sources under {src}")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  (import time counts as set-up)
    import prodcong.cli

    return prodcong.cli


def reset_caches() -> None:
    """Empty every lru cache in the package, as a fresh process would have them."""
    for name, mod in list(sys.modules.items()):
        if name == "prodcong" or name.startswith("prodcong."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_job(cli, argv):
    """One job: (exit code or None if it raised, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception:  # a raising job is a failed job, never a crashed benchmark
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), perf_counter() - start


def run_loop(cli, jobs, seconds: float, min_jobs: int, tracer=None):
    """Closed loop over the job list: stop once `seconds` have passed and at
    least `min_jobs` jobs ran. Returns (results, wall seconds)."""
    results = []
    start = perf_counter()
    while len(results) < min_jobs or perf_counter() - start < seconds:
        i = len(results)
        job = jobs[i % len(jobs)]
        if tracer is not None:
            tracer.job = i
        results.append((job, *run_job(cli, job.argv)))
    return results, perf_counter() - start


def set_up(cli, workload: str, seed: int, count: int):
    """Generate the job list and warm up; repeated, with the median time kept."""
    import jobs as jobgen

    times = []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        job_list = jobgen.generate(workload, seed, count)
        for argv in WARMUP[workload]:
            run_job(cli, argv)
        times.append(perf_counter() - start)
    reset_caches()
    return job_list, statistics.median(times)


def verify(results):
    """Check every job; returns the failing ones as (index, job, problems)."""
    from checks import check

    failing = []
    for i, (job, code, out, err, _) in enumerate(results):
        problems = check(job.argv, code, out) if code is not None else [err.strip().splitlines()[-1]]
        if problems:
            failing.append((i, job, problems))
    return failing


def fingerprint(results) -> str:
    h = hashlib.sha256()
    for _, _, out, _, _ in results[:MIN_JOBS]:
        h.update(out.encode())
    return h.hexdigest()


def end_to_end(results, wall: float, setup_s: float) -> dict:
    lat_ms = [r[4] * 1000 for r in results]
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (len(results) / wall, "1/s"),
        "job_p50_ms": (statistics.median(lat_ms), "ms"),
        "job_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, results, wall_plain: float, wall_traced: float) -> dict:
    import prodcong.arith as arith

    calls, busy, self_s = tracer.times()
    c = tracer.counts
    represent_jobs = {i for i, r in enumerate(results) if r[0].argv[0] == "represent"}
    chains_in_represent = sum(
        1 for name, _, _, _, job in tracer.spans
        if name.startswith("growth.power_set_sequence") and job in represent_jobs
    )

    def hit_ratio(fn) -> float:
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        return _ratio(info.hits, info.hits + info.misses) if info else 0.0

    iip, pss = "residues.iterated_interval_product", "growth.power_set_sequence"
    pairwise_cells = c["residues.product_set.cells"] + c["residues.sum_set.cells"]
    return {
        f"{iip}.witnessed.self_s": (self_s[f"{iip}.witnessed"], "s"),
        f"{iip}.witnessed.calls": (calls[f"{iip}.witnessed"], "count"),
        f"{iip}.plain.self_s": (self_s[f"{iip}.plain"], "s"),
        "residues.product_set.busy_s": (busy["residues.product_set"], "s"),
        "residues.product_set.cells": (c["residues.product_set.cells"], "count"),
        "residues.product_set.yield": (
            _ratio(c["residues.product_set.out"], c["residues.product_set.cells"]), "ratio"),
        "residues.sum_set.busy_s": (busy["residues.sum_set"], "s"),
        "residues.sum_set.cells": (c["residues.sum_set.cells"], "count"),
        "residues.row_path_cell_share": (_ratio(c["residues.row_path_cells"], pairwise_cells), "ratio"),
        "solver.solve.self_s": (self_s["solver.solve"], "s"),
        "solver.solvable_ratio": (_ratio(c["solver.solvable"], calls["solver.solve"]), "ratio"),
        "solver.abc_scan.self_s": (self_s["solver.abc_scan"], "s"),
        "solver.abc_scan.grid_cells": (c["solver.abc_scan.grid_cells"], "count"),
        "solver.threshold_scan.lengths_tried": (c["solver.threshold_scan.lengths_tried"], "count"),
        f"{pss}.witnessed.self_s": (self_s[f"{pss}.witnessed"], "s"),
        f"{pss}.plain.self_s": (self_s[f"{pss}.plain"], "s"),
        "growth.chain_steps": (c["growth.chain_steps"], "count"),
        "growth.chain_steps.plain": (c[f"{pss}.plain.chain_steps"], "count"),
        "growth.is_subgroup.busy_s": (busy["growth.is_subgroup"], "s"),
        "growth.is_subgroup.cells": (c["growth.is_subgroup.cells"], "count"),
        "growth.power_residue_index.self_s": (self_s["growth.power_residue_index"], "s"),
        "growth.chains_per_represent": (_ratio(chains_in_represent, len(represent_jobs)), "ratio"),
        "growth.olson_bound_check.busy_s": (busy["growth.olson_bound_check"], "s"),
        "smooth.greedy_factor.calls": (calls["smooth.greedy_factor"], "count"),
        "smooth.greedy_factor.us_per_call": (
            _ratio(busy["smooth.greedy_factor"] * 1e6, calls["smooth.greedy_factor"]), "us"),
        "smooth.build_smooth_table.busy_s": (busy["smooth.build_smooth_table"], "s"),
        "smooth.build_smooth_table.cells": (c["smooth.build_smooth_table.cells"], "count"),
        "charsums.product_energy.busy_s": (busy["charsums.product_energy"], "s"),
        "charsums.product_energy_via_characters.busy_s": (
            busy["charsums.product_energy_via_characters"], "s"),
        "charsums.burgess_profile.busy_s": (busy["charsums.burgess_profile"], "s"),
        "arith.build_field_context.busy_s": (busy["arith.build_field_context"], "s"),
        "arith.field_context.hit_ratio": (hit_ratio(getattr(arith, "_field_context", None)), "ratio"),
        "arith.floor_power.hit_ratio": (hit_ratio(arith.floor_power), "ratio"),
        "cli.main.self_s": (self_s["cli.main"], "s"),
        "report.render.busy_s": (busy["report.render"], "s"),
        "report.bytes": (c["report.bytes"], "bytes"),
        "trace.overhead_ratio": (_ratio(wall_traced, wall_plain), "ratio"),
        "trace.span_coverage": (_ratio(busy["cli.main"], wall_traced), "ratio"),
    }


def where_time_goes(tracer, wall: float, top: int = 8) -> list[str]:
    _, _, self_s = tracer.times()
    ranked = sorted(self_s.items(), key=lambda kv: -kv[1])[:top]
    return [f"  self {name:<44} {t:9.3f} s {100 * t / wall:5.1f}%" for name, t in ranked]


def measure(cli, workload: str, seed: int, seconds: float, trace: bool, import_s: float = 0.0,
            min_jobs: int = MIN_JOBS, trace_jobs: int = TRACE_JOBS, sidecar: Path | None = None):
    """One benchmark run in this process. Returns (result dict, report lines).
    Set-up time is import_s plus the median of the repeated set-ups."""
    from tracing import Tracer

    count = max(min_jobs, trace_jobs, int(JOBS_PER_SECOND_CAP * seconds))
    job_list, setup_s = set_up(cli, workload, seed, count)
    lines = []
    if not trace:
        results, wall = run_loop(cli, job_list, seconds, min_jobs)
        metrics = end_to_end(results, wall, import_s + setup_s)
        lines.append(f"{workload} seed {seed}: {len(results)} jobs in {wall:.3f} s")
    else:
        plain, wall_plain = run_loop(cli, job_list, 0, trace_jobs)
        reset_caches()
        tracer = Tracer()
        with tracer:
            results, wall = run_loop(cli, job_list, 0, trace_jobs, tracer)
        metrics = per_layer(tracer, results, wall_plain, wall)
        lines.append(f"{workload} seed {seed}: {len(results)} traced jobs in {wall:.3f} s "
                     f"({wall_plain:.3f} s untraced)")
        lines.extend(where_time_goes(tracer, wall))
        if sidecar is not None:
            sidecar.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(sidecar)
            lines.append(f"spans: {sidecar}")
    failing = verify(results)
    fp = fingerprint(results)
    if trace and [r[2] for r in plain] != [r[2] for r in results]:
        failing.append((-1, None, ["tracing changed a report body"]))
    lines.extend(f"  {name} {value} {unit}" for name, (value, unit) in metrics.items())
    lines.append(f"  fail_ratio {len(failing) / len(results)} ratio ({len(failing)} of {len(results)} jobs)")
    lines.append(f"fingerprint {fp}")
    for i, job, problems in failing[:20]:
        lines.append(f"FAILED job {i} {' '.join(job.argv) if job else ''}: {'; '.join(problems)}")
    result = {
        "correct": not failing,
        "attempted": len(results),
        "failed": len(failing),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def run_all(seed: int, seconds: int) -> int:
    """Every workload untraced, then traced, each in a fresh process: prints
    their reports and whether tracing left the report fingerprint unchanged."""
    from jobs import WORKLOADS

    ok = True
    for workload in WORKLOADS:
        prints = []
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=False,
            )
            out = proc.stdout.strip().splitlines()
            print(f"== {workload} --trace {trace} (exit {proc.returncode})", *out, sep="\n")
            if proc.returncode != 0 or not out:
                print(proc.stderr)
                return 1
            ok &= json.loads(out[-1])["correct"]
            prints.append(next(line for line in out if line.startswith("fingerprint ")))
        ok &= prints[0] == prints[1]
        print(f"{workload}: {prints[0]}, {'same' if prints[0] == prints[1] else 'DIFFERENT'} when traced")
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve-witness", "growth-represent", "scan-sweep", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    root = Path.cwd()
    start = perf_counter()
    try:
        cli = import_program(root)
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - start
    sidecar = root / SIDECAR_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    result, lines = measure(cli, args.workload, args.seed, args.seconds, bool(args.trace), import_s,
                            sidecar=sidecar if args.trace else None)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
