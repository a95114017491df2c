"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload symmetric-corpus --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  With `--trace 0` the run repeats whole rounds of the
workload's operations until `--seconds` would be exceeded (at least one
round) and reports the end-to-end metrics as medians over rounds, every
time scaled to a reference machine speed by `calibrate.py` (README.md, "How
a run measures").  With `--trace 1` it alternates untraced and traced
rounds, two of each, and reports the per-layer metrics per traced round and
the tracing overhead, in wall seconds.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
TRACE_PAIRS = 2

# Child interpreter for setup_s: what every CLI call pays (importing
# persuade.cli), then loading the workload's instance files.
SETUP_CODE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import persuade.cli
from instances import load_file
for arg in sys.argv[3:]:
    shared, path = arg.split(":", 1)
    load_file(path, shared == "1")
"""

# Reference child for setup_s: a fresh interpreter importing the third-party
# libraries the package imports, none of the package itself.  Each set-up
# child's time is scaled by REFERENCE_SETUP_S over the reference children
# around it, which takes the host's speed out as calibrate.py does for calls.
REFERENCE_CODE = "import click, numpy, scipy.sparse, scipy.optimize"
REFERENCE_SETUP_S = 1.0  # reference child's time on the reference machine (README.md)

PER_LAYER_UNITS = {
    "model.instance_from_dict.s": "s",
    "model.sample_state.calls": "count",
    "model.sample_state.s": "s",
    "geometry.pareto_frontier.calls": "count",
    "geometry.pareto_frontier.s": "s",
    "geometry.line_side.calls": "count",
    "prob_oracle.segment_probabilities.calls": "count",
    "prob_oracle.segment_probabilities.s": "s",
    "prob_oracle.unique_probabilities.calls": "count",
    "prob_oracle.unique_probabilities.s": "s",
    "prob_oracle.subset_product_sum.calls": "count",
    "lp_core.solve_slope_lp.calls": "count",
    "lp_core.solve_slope_lp.feasible": "count",
    "lp_core.solve_lp.calls": "count",
    "lp_core.solve_lp.s": "s",
    "lp_core.solve_lp.rows": "count",
    "lp_core.solve_lp.cols": "count",
    "symmetric_schemes.slope_algorithm.self_s": "s",
    "symmetric_schemes.recommend.calls": "count",
    "symmetric_schemes.recommend.s": "s",
    "symmetric_schemes.recommendation_distribution.calls": "count",
    "symmetric_schemes.bicriteria_scheme.self_s": "s",
    "independent_schemes.f_of_S.calls": "count",
    "independent_schemes.f_of_S.self_s": "s",
    "independent_schemes.g_curve.calls": "count",
    "independent_schemes.g_curve.s": "s",
    "independent_schemes.fptas_select.self_s": "s",
    "independent_schemes.actions_greedy.self_s": "s",
    "independent_schemes.actions_reduce.self_s": "s",
    "exact_oracle.enumerate_prior.calls": "count",
    "exact_oracle.enumerate_prior.s": "s",
    "exact_oracle.enumerate_prior.states": "count",
    "exact_oracle.optimal_scheme_bruteforce.self_s": "s",
    "exact_oracle.persuasiveness_check.self_s": "s",
    "exact_oracle.expected_utilities.self_s": "s",
    "simulate.estimate.self_s": "s",
    "simulate.samples": "count",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("symmetric-large", "symmetric-corpus", "independent"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package():
    """Import persuade from this checkout's src/, or exit without a result."""
    if not (SRC / "persuade" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    os.environ.pop("PERSUADE_THREADS", None)
    import persuade

    if Path(persuade.__file__).resolve().parent != (SRC / "persuade").resolve():
        sys.exit(f"perfbench: imported persuade from {persuade.__file__}, not from {SRC}")


def write_inputs(workload: str, seed: int, inputs) -> list[str]:
    """Write every instance document of the workload to a file; return the
    setup child's arguments ("<shared>:<path>")."""
    import gen
    from instances import shares_type_ids

    folder = OUT / f"{workload}-seed{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    args = []
    for i, doc in enumerate(gen.documents(workload, inputs)):
        path = folder / f"{i:03d}.json"
        path.write_text(json.dumps(doc))
        args.append(f"{int(shares_type_ids(doc))}:{path}")
    return args


def measure_setup(files: list[str]) -> float:
    """Median over SETUP_REPEATS set-up children, each scaled by the mean of
    the reference children run right before and right after it."""
    def child(*args: str) -> float:
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", *args], check=True, cwd=ROOT)
        return perf_counter() - t0

    refs = [child(REFERENCE_CODE)]
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        raw.append(child(SETUP_CODE, str(SRC), str(BENCH), *files))
        refs.append(child(REFERENCE_CODE))
        scaled.append(raw[-1] * REFERENCE_SETUP_S / statistics.fmean(refs[-2:]))
    print(f"setup: median {statistics.median(scaled):.4f} s ({statistics.median(raw):.4f} s "
          f"wall; reference child {statistics.median(refs):.4f} s) over {SETUP_REPEATS} "
          f"interpreters")
    return statistics.median(scaled)


def report_failures(rounds) -> bool:
    """Print each distinct failure once; True when every failure is a known fault."""
    seen = set()
    for r in rounds:
        for label, message, known in r.failures:
            if (label, message) not in seen:
                seen.add((label, message))
                print(f"{'known fault' if known else 'FAILED'}: {label}: {message}")
    return all(known for r in rounds for _, _, known in r.failures)


def timed_run(workload: str, seed: int, seconds: float, inputs) -> dict:
    from calibrate import REFERENCE_S, Speedometer
    from workloads import OPERATIONS, run_round

    files = write_inputs(workload, seed, inputs)
    setup_s = measure_setup(files)
    ops = OPERATIONS[workload](inputs)
    start = perf_counter()
    rounds, walls = [], []
    with Speedometer() as speed:
        while True:
            t0 = perf_counter()
            rounds.append(run_round(ops, speed))
            walls.append(perf_counter() - t0)
            if perf_counter() - start + statistics.median(walls) > seconds:
                break
    for i, r in enumerate(rounds):
        print(f"round {i}: program {r.seconds():.3f} s ({r.seconds(raw=True):.3f} s wall), "
              f"solve {r.seconds('solve'):.3f} s, {r.sim_samples} samples in "
              f"{r.seconds('simulate'):.3f} s, {r.failed}/{r.attempted} failed")
    print(f"calibration kernel: median {statistics.median(speed.samples):.5f} s over "
          f"{len(speed.samples)} samples, reference {REFERENCE_S} s")
    metrics = {
        "setup_s": (setup_s, "s"),
        "solve_s": (statistics.median(r.seconds("solve") for r in rounds), "s"),
        "sim_samples_per_s": (statistics.median(
            r.sim_samples / r.seconds("simulate") if r.seconds("simulate") else 0.0
            for r in rounds), "samples/s"),
        "round_s": (statistics.median(r.seconds() for r in rounds), "s"),
    }
    return result(rounds, metrics)


def traced_run(workload: str, seed: int, inputs) -> dict:
    """Alternate untraced and traced rounds, TRACE_PAIRS of each; report the
    per-layer metrics per traced round and the tracing overhead."""
    from calibrate import Speedometer
    from tracing import Tracer
    from workloads import OPERATIONS, run_round

    tracer, speed = Tracer(), Speedometer(calibrate=False)
    plain, traced = [], []
    for _ in range(TRACE_PAIRS):
        plain.append(run_round(OPERATIONS[workload](inputs), speed))
        with tracer:
            traced.append(run_round(OPERATIONS[workload](inputs), speed))
    table = tracer.table()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload}-seed{seed}.json")
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        prefix = "simulate.estimate" if name == "simulate.samples" else name.rsplit(".", 1)[0]
        if prefix in tracer.installed:  # a function a later change removes reads as absent
            value = table.get(name, 0)
            metrics[name] = (value // TRACE_PAIRS if unit == "count" else value / TRACE_PAIRS, unit)
    plain_s = statistics.median(r.seconds() for r in plain)
    traced_s = statistics.median(r.seconds() for r in traced)
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    print(f"untraced round {plain_s:.3f} s, traced round {traced_s:.3f} s (medians of "
          f"{TRACE_PAIRS}); per traced round:")
    for name, (value, unit) in metrics.items():
        print(f"{name:58} {value:>14.6g} {unit}")
    return result(plain + traced, metrics)


def result(rounds, metrics: dict) -> dict:
    correct = report_failures(rounds)
    return {
        "correct": correct,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import gen

    inputs = gen.WORKLOAD_INPUTS[args.workload](args.seed)
    if args.trace:
        out = traced_run(args.workload, args.seed, inputs)
    else:
        out = timed_run(args.workload, args.seed, args.seconds, inputs)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
