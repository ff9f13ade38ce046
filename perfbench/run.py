"""qstrange benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qstrange checkout; the package is imported from
./src.  One runner process starts one worker interpreter at a time
(perfbench/worker.py), each running one repetition of the workload with
cold session caches, until S seconds have been measured.  Every item's
result is checked against perfbench/expected.json.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 repetitions alternate between untraced and traced, and the
metrics are per-layer span totals.  The line before it holds details:
sample counts, the tail percentile, failures and the environment.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import stats
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

# Every run makes at least this many repetitions, so the tail percentile can
# be fixed per workload from the item count and does not move when the
# program gets faster and more repetitions fit in the run.
MIN_REPS = 5
MIN_TRACED_REPS = 2
SETUP_PROBES_PER_REP = 2
IMPORTTIME_PROBES = 5
# The whole run, set-up included, ends within this many seconds.
DEADLINE_S = 160

# (metric, unit, better, span name or None, field)
LAYER_METRICS = (
    ("exactpoly.exact_div.calls", "count", "lower", "exactpoly.exact_div", "calls"),
    ("exactpoly.exact_div.self_s", "s", "lower", "exactpoly.exact_div", "self_s"),
    ("exactpoly.exact_div.not_divisible", "count", "lower", "exactpoly.exact_div", "NotDivisible"),
    ("exactpoly.mul.calls", "count", "lower", "exactpoly.mul", "calls"),
    ("exactpoly.mul.self_s", "s", "lower", "exactpoly.mul", "self_s"),
    ("exactpoly.pochhammer.self_s", "s", "lower", "exactpoly.pochhammer", "self_s"),
    ("exactpoly.max_degree", "degree", "lower", None, "max_degree"),
    ("exactpoly.max_coeff_bits", "bits", "lower", None, "max_coeff_bits"),
    ("qfamilies.partial_sum.calls", "count", "lower", "qfamilies.partial_sum", "calls"),
    ("qfamilies.partial_sum.self_s", "s", "lower", "qfamilies.partial_sum", "self_s"),
    ("qfamilies.coefficient_polys.self_s", "s", "lower", "qfamilies.coefficient_polys", "self_s"),
    ("dissection.verify_theorem.self_s", "s", "lower", "dissection.verify_theorem", "self_s"),
    ("dissection.dissect.self_s", "s", "lower", "dissection.dissect", "self_s"),
    ("dissection.residue_set.self_s", "s", "lower", "dissection.residue_set", "self_s"),
    ("dissection.divides_ratio", "ratio", "higher", None, "divides_ratio"),
    ("cyclofield.eval_at_root.self_s", "s", "lower", "cyclofield.eval_at_root", "self_s"),
    ("cyclofield.ops.calls", "count", "lower", "cyclofield.ops", "calls"),
    ("cyclofield.ops.self_s", "s", "lower", "cyclofield.ops", "self_s"),
    ("partialtheta.twisted_sequence.calls", "count", "lower", "partialtheta.twisted_sequence", "calls"),
    ("partialtheta.twisted_sequence.self_s", "s", "lower", "partialtheta.twisted_sequence", "self_s"),
    ("partialtheta.l_value.calls", "count", "lower", "partialtheta.l_value", "calls"),
    ("partialtheta.l_value.self_s", "s", "lower", "partialtheta.l_value", "self_s"),
    ("partialtheta.gamma_coeff.calls", "count", "lower", "partialtheta.gamma_coeff", "calls"),
    ("partialtheta.gamma_coeff.self_s", "s", "lower", "partialtheta.gamma_coeff", "self_s"),
    ("strangematch.expansion_coeff.self_s", "s", "lower", "strangematch.expansion_coeff", "self_s"),
    ("strangematch.match_expansion.self_s", "s", "lower", "strangematch.match_expansion", "self_s"),
    ("fishburn.verify_congruence.self_s", "s", "lower", "fishburn.verify_congruence", "self_s"),
    ("fishburn.scan_congruences.self_s", "s", "lower", "fishburn.scan_congruences", "self_s"),
    ("fishburn.xi_coeffs.self_s", "s", "lower", "fishburn.xi_coeffs", "self_s"),
    ("fishburn.convolve.calls", "count", "lower", "fishburn.convolve", "calls"),
    ("fishburn.convolve.self_s", "s", "lower", "fishburn.convolve", "self_s"),
    ("cli.import_s", "s", "lower", None, "import_s"),
    ("cli.import_numpy_s", "s", "lower", None, "import_numpy_s"),
    ("cli.run.self_s", "s", "lower", "cli.run", "self_s"),
    ("cli.process_s", "s", "lower", "cli.run", "process_s"),
    ("trace.overhead_s", "s", "lower", None, "overhead_s"),
)


class BenchError(Exception):
    """The benchmark could not measure at all; no result is printed."""


def tail_pct(workload):
    """The workload's tail percentile, fixed by its items per repetition."""
    return stats.tail_percentile(len(workloads.plan(workload, 0)) * MIN_REPS)


class Children:
    """Runs child interpreters one at a time, each in its own session, and
    kills a child with everything it started once the deadline passes."""

    def __init__(self, env, deadline):
        self.env = env
        self.deadline = deadline

    def run(self, argv):
        with subprocess.Popen(argv, env=self.env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              start_new_session=True) as proc:
            try:
                out, err = proc.communicate(
                    timeout=max(0.1, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise BenchError(f"{' '.join(argv[1:4])} passed the deadline")
        return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def warm_bytecode(root, kids):
    """Compile the package and the benchmark once, untimed."""
    proc = kids.run([sys.executable, "-m", "compileall", "-q",
                     os.path.join(root, "src", "qstrange"), HERE])
    if proc.returncode != 0:
        raise BenchError("compileall failed: " + proc.stdout.decode()[-400:])
    proc = kids.run([sys.executable, "-c", "import qstrange.cli"])
    if proc.returncode != 0:
        raise BenchError("import qstrange failed: " + proc.stderr.decode()[-400:])


def setup_time(kids):
    """(raw seconds from spawning an interpreter until `import qstrange`
    returns, the same scaled by an empty interpreter start timed just
    before)."""
    code = "import time, qstrange; print(repr(time.monotonic()))"
    scale = stats.spawn_scale(kids.env)
    t0 = time.monotonic()  # CLOCK_MONOTONIC, shared by all processes
    proc = kids.run([sys.executable, "-c", code])
    if proc.returncode != 0:
        raise BenchError("import qstrange failed")
    raw = float(proc.stdout.split()[-1]) - t0
    return raw, raw * scale


def import_times(kids, count):
    """(qstrange, numpy) cumulative import seconds from -X importtime,
    scaled to the reference machine."""
    qs, nps = [], []
    for _ in range(count):
        scale = stats.spawn_scale(kids.env)
        proc = kids.run([sys.executable, "-X", "importtime", "-c",
                         "import qstrange"])
        cumulative = {}
        for line in proc.stderr.decode().splitlines():
            fields = line.split("|")
            if line.startswith("import time:") and len(fields) == 3:
                name = fields[2].strip()
                if name in ("qstrange", "numpy") and fields[1].strip().isdigit():
                    cumulative[name] = int(fields[1]) / 1e6 * scale
        qs.append(cumulative.get("qstrange", 0.0))
        nps.append(cumulative.get("numpy", 0.0))
    return statistics.median(qs), statistics.median(nps)


def scale_layers(rep):
    """Scale a traced repetition's span times by its median speed scale; the
    worker has already scaled item latencies one by one."""
    for row in rep.get("layers", {}).values():
        row["self_s"] *= rep["scale"]
    return rep


def run_rep(root, kids, workload, seed, traced):
    """One worker repetition; None if the worker did not report in time."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
            "--workload", workload, "--seed", str(seed),
            "--trace", str(int(traced))]
    if traced:
        out_dir = os.path.join(root, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        argv += ["--spans", os.path.join(out_dir, f"spans-{workload}.json")]
    t0 = time.monotonic()
    try:
        proc = kids.run(argv)
    except BenchError as exc:
        sys.stderr.write(f"worker failed: {exc}\n")
        return None, time.monotonic() - t0
    wall = time.monotonic() - t0
    try:
        rep = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    except (IndexError, ValueError):
        rep = None
    if proc.returncode != 0 or rep is None:
        sys.stderr.write(f"worker failed ({proc.returncode}): "
                         f"{proc.stderr.decode()[-800:]}\n")
        return None, wall
    rep["traced"] = traced
    return scale_layers(rep), wall


def measure(root, kids, workload, seed, seconds, trace, setup):
    """Repetitions until the time is used; traced runs alternate modes.

    Untraced runs time SETUP_PROBES_PER_REP set-ups before each repetition,
    appending them to setup, so set-up is sampled across the whole run.
    """
    reps, walls, crashed = [], [], 0
    t0 = time.monotonic()
    while True:
        if not trace:
            setup += [setup_time(kids) for _ in range(SETUP_PROBES_PER_REP)]
        traced = bool(trace) and len(walls) % 2 == 1
        # untraced repetitions each take their own order, derived from the
        # seed, so order effects average out; traced ones share the seed's
        # order so that their call counts must agree exactly
        rep_seed = seed if trace else seed * 1000 + len(walls)
        rep, wall = run_rep(root, kids, workload, rep_seed, traced)
        walls.append(wall)
        if rep is None:
            crashed += 1
        else:
            reps.append(rep)
        if crashed > 2 or time.monotonic() > kids.deadline:
            break
        done_plain = sum(1 for r in reps if not r["traced"])
        done_traced = sum(1 for r in reps if r["traced"])
        enough = (done_traced >= MIN_TRACED_REPS and done_plain >= MIN_TRACED_REPS
                  if trace else done_plain >= MIN_REPS)
        if enough and time.monotonic() - t0 + statistics.median(walls) > seconds:
            break
    return reps, crashed


def end_to_end(workload, reps, setup):
    latencies = [ms for r in reps for ms in r["latency_ms"]]
    pct = tail_pct(workload)
    metrics = {
        "run_s": statistics.median([r["run_s"] for r in reps]),
        "setup_s": statistics.median([scaled for _, scaled in setup]),
        "item_p50_ms": statistics.median(latencies),
        "item_tail_ms": stats.percentile(latencies, pct),
        # a mean, not a median: peak memory depends on item order (45 or
        # 51 MB on modular-scan) and each repetition takes its own order
        "peak_rss_mb": statistics.fmean([r["peak_rss_mb"] for r in reps]),
    }
    units = {"run_s": "s", "setup_s": "s", "item_p50_ms": "ms",
             "item_tail_ms": "ms", "peak_rss_mb": "MB"}
    detail = {
        "repetitions": len(reps),
        "run_s_samples": [round(r["run_s"], 4) for r in reps],
        "raw_run_s": statistics.median([r["raw_run_s"] for r in reps]),
        "raw_setup_s": statistics.median([raw for raw, _ in setup]),
        "speed_scale": statistics.median([r["scale"] for r in reps]),
        "item_samples": len(latencies),
        "setup_samples": len(setup),
        "tail_percentile": pct,
        "tail_samples_beyond": stats.beyond(len(latencies), pct),
    }
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, detail


def _field(rep, span, field):
    row = rep["layers"].get(span)
    if row is None:
        return 0 if field != "self_s" else 0.0
    if field in ("calls", "self_s"):
        return row[field]
    return row["raised"].get(field, 0)


def per_layer(reps, import_s, import_numpy_s):
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    counts = [{name: (row["calls"], sorted(row["raised"].items()))
               for name, row in r["layers"].items()} for r in traced]
    deterministic = all(c == counts[0] for c in counts)
    missing = set(traced[0]["missing"]) if traced else set()
    attempted, succeeded = traced[0]["divisions"]
    derived = {
        "max_degree": traced[0]["max_degree"],
        "max_coeff_bits": traced[0]["max_coeff_bits"],
        "divides_ratio": succeeded / attempted if attempted else 0.0,
        "import_s": import_s,
        "import_numpy_s": import_numpy_s,
        "overhead_s": (statistics.median([r["run_s"] for r in traced])
                       - statistics.median([r["run_s"] for r in plain])),
    }
    metrics = {}
    for name, unit, _, span, field in LAYER_METRICS:
        if span is not None and span in missing:
            continue
        if span is None:
            value = derived[field]
        elif field == "process_s":
            value = statistics.median([r["process_s"] for r in traced])
        elif field == "self_s":
            value = statistics.median([_field(r, span, field) for r in traced])
        else:  # a count: identical in every traced repetition
            value = _field(traced[0], span, field)
        metrics[name] = {"value": value, "unit": unit}
    detail = {
        "repetitions": len(plain),
        "traced_repetitions": len(traced),
        "deterministic_counts": deterministic,
        "absent": sorted(missing),
        "spans": {name: {"calls": row["calls"],
                         "self_s": round(row["self_s"], 6),
                         "raised": row["raised"]}
                  for name, row in sorted(traced[0]["layers"].items())},
    }
    return metrics, detail, deterministic


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qstrange", "__init__.py")):
        print("error: run from a qstrange checkout (no src/qstrange here)",
              file=sys.stderr)
        return 2
    # One CPU for the runner, its workers and their children, so that each
    # speed reference runs on the same CPU as the work it scales.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    kids = Children(workloads.child_env(root), time.monotonic() + DEADLINE_S)
    try:
        warm_bytecode(root, kids)
        if args.trace:
            import_s, import_numpy_s = import_times(kids, IMPORTTIME_PROBES)
        setup = []
        reps, crashed = measure(root, kids, args.workload, args.seed,
                                args.seconds, args.trace, setup)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not reps or (args.trace and not any(r["traced"] for r in reps)):
        print("error: no repetition finished", file=sys.stderr)
        return 1

    per_rep = len(workloads.plan(args.workload, args.seed))
    attempted = sum(len(r["failed"]) for r in reps) + crashed * per_rep
    failed = sum(sum(r["failed"]) for r in reps) + crashed * per_rep
    correct = failed == 0
    if args.trace:
        metrics, detail, deterministic = per_layer(reps, import_s,
                                                   import_numpy_s)
        correct = correct and deterministic
    else:
        metrics, detail = end_to_end(args.workload, reps, setup)
    detail.update({
        "workload": args.workload, "seed": args.seed,
        "crashed_repetitions": crashed,
        "failure_ratio": stats.failure_ratio(failed, attempted),
        "failures": [f for r in reps for f in r["failures"]][:20],
        "environment": {"python": platform.python_version(),
                        "cpu_count": os.cpu_count()},
    })
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
