#!/usr/bin/env python3
"""limshape benchmark: one workload, one process, one request at a time.

    python3 perfbench/run.py --workload two-lines --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload in turn

Builds the workload's inputs from --seed, repeats passes over them within
--seconds (at least one pass), checks every output after timing and prints
each metric with its unit.  The last stdout line is one JSON object:
with --trace 0 it holds the end-to-end metrics of untraced passes, with
--trace 1 the per-layer metrics of traced passes.
Exits 1 when an output is wrong and 2 when limshape cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from spans import Recorder, coverage, layer_times, patch, unpatch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 10  # subprocess start-ups timed per run; setup_s is their median
YARDSTICK_SAMPLES = 5  # yardstick timings before each pass

# Per-layer metrics: times come from spans, counts from the values the
# wrapped calls returned.
TIMED_LAYERS = [
    "configs.symbolic_power",
    "groebner.intersect_ideals",
    "groebner.buchberger",
    "groebner.gin",
    "rings.linear_substitute",
    "staircase.count_gamma",
    "staircase.gamma_volume",
    "staircase.lm_volume",
    "staircase.hilbert_function",
    "polyhedra.newton_polyhedron",
    "polyhedra.clipped_volume",
    "polyhedra.convex_union_approximant",
    "polyhedra.gamma_region",
]
CALL_COUNTS = ["groebner.buchberger", "rings.linear_substitute"]
SELF_TIMES = [
    "groebner.gin",
    "asymptotics.compute_report_row",
    "asymptotics.ahf_estimate",
]
SIZE_COUNTS = [
    "configs.symbolic_power.gens_out",
    "configs.symbolic_power.coeff_bits_max",
    "groebner.buchberger.basis_out",
    "groebner.gin.raw_gens",
    "staircase.min_gens_max",
    "polyhedra.hull_vertices",
    "polyhedra.hull_facets",
]


PER_LAYER_UNITS = {
    **{f"{n}.s": "s" for n in TIMED_LAYERS},
    **{f"{n}.calls": "count" for n in CALL_COUNTS},
    **{f"{n}.self_s": "s" for n in SELF_TIMES},
    "cli.self_s": "s",
    **{n: "count" for n in SIZE_COUNTS},
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "fraction",
}


END_TO_END_UNITS = {"setup_s": "s", "total_ref": "loops", "peak_rss_mb": "MB"}


def trace_targets():
    """(owner, attribute, span name): each public function wrapped in the
    namespace its caller looks it up in.  Polynomial arithmetic and linalg
    are too hot to wrap; they count in their callers' self time."""
    from limshape import asymptotics, cli, configs, groebner, polyhedra
    from limshape.rings import Polynomial
    from limshape.staircase import MonomialStaircase

    targets = [
        (cli, "main", "cli.main"),
        (cli, "cmd_limiting_shape", "cli.cmd_limiting_shape"),
        (cli, "ahf_estimate", "asymptotics.ahf_estimate"),
        (asymptotics, "compute_report_row", "asymptotics.compute_report_row"),
        (asymptotics, "symbolic_power", "configs.symbolic_power"),
        (asymptotics, "gin", "groebner.gin"),
        (configs, "intersect_ideals", "groebner.intersect_ideals"),
        (groebner, "buchberger", "groebner.buchberger"),
        (Polynomial, "linear_substitute", "rings.linear_substitute"),
    ]
    for method in ("count_gamma", "hilbert_function", "gamma_volume", "lm_volume"):
        targets.append((MonomialStaircase, method, f"staircase.{method}"))
    for owner, names in (
        (asymptotics, ["newton_polyhedron", "clipped_volume"]),
        (cli, ["newton_polyhedron", "convex_union_approximant", "gamma_region"]),
        (polyhedra, ["newton_polyhedron", "clipped_volume",
                     "convex_union_approximant", "gamma_region"]),
    ):
        targets += [(owner, n, f"polyhedra.{n}") for n in names]
    return targets


def _coeff_bits(ideal):
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length())
         for g in ideal.generators for c in g.terms.values()),
        default=0,
    )


def size_counts(calls):
    """Sizes read from the arguments and results of the wrapped calls."""
    out = dict.fromkeys(SIZE_COUNTS, 0)
    for name, args, result in calls:
        if name == "configs.symbolic_power":
            out["configs.symbolic_power.gens_out"] += len(result.ideal.generators)
            out["configs.symbolic_power.coeff_bits_max"] = max(
                out["configs.symbolic_power.coeff_bits_max"],
                _coeff_bits(result.ideal),
            )
        elif name == "groebner.buchberger":
            out["groebner.buchberger.basis_out"] += len(result)
        elif name == "groebner.gin":
            out["groebner.gin.raw_gens"] += len(result.raw_initial)
        elif name.startswith("staircase."):
            out["staircase.min_gens_max"] = max(
                out["staircase.min_gens_max"], len(args[0].min_gens)
            )
        elif name in ("polyhedra.newton_polyhedron",
                      "polyhedra.convex_union_approximant"):
            out["polyhedra.hull_vertices"] += len(result.vertices)
            out["polyhedra.hull_facets"] += len(result.facet_inequalities())
    return out


def layer_metrics(recorder, wall):
    """Per-layer metrics of one traced pass (overhead is added later)."""
    times = layer_times(recorder.spans)

    def get(name, key):
        return times.get(name, {}).get(key, 0)

    out = {f"{n}.s": float(get(n, "s")) for n in TIMED_LAYERS}
    out.update({f"{n}.calls": get(n, "calls") for n in CALL_COUNTS})
    out.update({f"{n}.self_s": float(get(n, "self_s")) for n in SELF_TIMES})
    out["cli.self_s"] = float(
        sum(v["self_s"] for k, v in times.items() if k.startswith("cli."))
    )
    out.update(size_counts(recorder.calls))
    out["trace.coverage"] = coverage(recorder.spans, wall)
    return out


# -- running ---------------------------------------------------------------


def yardstick():
    """A fixed pure-Python loop that shares no code with limshape.  A shared
    2-vCPU virtual machine changed speed by up to 1.5x over minutes; timed
    next to the passes, this loop slows with the machine, while changes to
    the program leave it alone."""
    s = 0
    for i in range(200_000):
        s += i * i % 7
    return s


def run_passes(workload, inputs, workdir, seconds, traced):
    """Repeat passes while one more, as long as the average so far, still
    ends within `seconds`; run at least one, and time the yardstick before
    each.  Returns the passes, each (wall seconds, PassResult, Recorder or
    None when untraced), and the yardstick's times."""
    passes, yardstick_s = [], []
    start = time.perf_counter()
    while not passes or (
        (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds
    ):
        for _ in range(YARDSTICK_SAMPLES):
            t0 = time.perf_counter()
            yardstick()
            yardstick_s.append(time.perf_counter() - t0)
        recorder = Recorder() if traced else None
        saved = patch(recorder, trace_targets()) if traced else []
        try:
            t0 = time.perf_counter()
            result = workload.run_pass(inputs, workdir / f"pass{len(passes)}")
            wall = time.perf_counter() - t0
        finally:
            unpatch(saved)
        passes.append((wall, result, recorder))
    return passes, yardstick_s


def _noop():
    pass


def span_cost():
    """Seconds that wrapping adds to one call, timed on a no-op function."""
    calls = 20_000
    wrapped = Recorder().wrap("noop", _noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t1 = time.perf_counter()
    for _ in range(calls):
        _noop()
    t2 = time.perf_counter()
    return ((t1 - t0) - (t2 - t1)) / calls


def check_passes(workload, seed, passes, expected):
    """Run the output checks; returns (operations attempted, labels of the
    failed ones, wrong outputs, digests seen)."""
    attempted, failures, problems, digests = 0, [], [], set()
    for _, result, _ in passes:
        if result.outputs is not None:
            workload.check(seed, result)
            digests.add(result.digest)
        attempted += len(result.failures)
        failures += [f for f in result.failures if f is not None]
        problems += result.problems
    if len(digests) > 1:
        problems.append("passes over the same inputs gave different outputs")
    # "*" holds the digest of a workload whose results do not depend on the seed
    entries = expected.get(workload.name, {})
    want = entries.get(str(seed), entries.get("*"))
    if want is not None and digests and digests != {want}:
        problems.append(f"digest {sorted(digests)[0]} != expected {want}")
    return attempted, failures, problems, digests


def setup_times(args, count):
    """Wall times to start the interpreter, import limshape and build the
    inputs, each in a fresh subprocess."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def report(metrics, units, attempted, failures, problems):
    for name, value in metrics.items():
        print(f"{name:42s} {value:>16.6g} {units[name]}")
    print(f"{'failed_fraction':42s} {len(failures) / attempted:>16.6g} fraction")
    for label in sorted(set(failures)):
        print(f"failed: {failures.count(label)} x {label}")
    for p in problems:
        print(f"WRONG OUTPUT: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def run_all(args, names):
    """Each workload in its own process, one after the other; the exit code
    is the worst of theirs."""
    worst = 0
    for name in names:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="only import limshape and build the inputs")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "limshape" / "__init__.py").is_file():
        print(f"error: no limshape sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        inputs = workload.build(args.seed, workdir)
        if args.setup_only:
            return 0
        expected = json.loads((HERE / "expected.json").read_text())
        # setup is timed on both sides of the passes, so that it samples
        # more than one phase of a noisy machine; the first probe, which
        # may write bytecode caches, is dropped
        probes = [] if args.trace else setup_times(args, SETUP_PROBES // 2 + 1)[1:]
        passes, yardstick_s = run_passes(
            workload, inputs, workdir, args.seconds, args.trace
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not args.trace:
            probes += setup_times(args, SETUP_PROBES - len(probes))
        attempted, failures, problems, digests = check_passes(
            workload, args.seed, passes, expected
        )
    finally:
        shutil.rmtree(workdir)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    pass_s = median(wall for wall, _, _ in passes)
    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes "
          f"of median {pass_s:.4g} s, yardstick {median(yardstick_s):.4g} s, "
          f"digest {' '.join(sorted(digests))}")
    if args.trace:
        per_pass = [layer_metrics(rec, wall) for wall, _, rec in passes]
        metrics = {k: median(m[k] for m in per_pass) for k in per_pass[0]}
        metrics["trace.pass_s"] = pass_s
        metrics["trace.overhead_s"] = median(
            len(rec.spans) for _, _, rec in passes
        ) * span_cost()
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": median(probes),
            "total_ref": pass_s / median(yardstick_s),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    report(metrics, units, attempted, failures, problems)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
