"""One repetition of one workload, in a fresh interpreter.

    python perfbench/worker.py --root DIR --workload NAME --seed N --trace 0|1
        [--spans FILE]

Prints one JSON line: the repetition's run time, each item's latency and
verdict, peak resident memory and, when traced, per-layer span totals.
The runner, run.py, starts one of these per repetition so that session
caches start cold in the same way every time.
"""

import argparse
import json
import resource
import statistics
import time

import spans
import stats
import workloads

MAX_REPORTED_FAILURES = 20


def _cli_trace(stderr):
    """The span dump a traced CLI call printed as its last stderr line."""
    lines = stderr.decode("utf-8", "replace").strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    items = workloads.plan(args.workload, args.seed)
    expected = workloads.load_expected(args.workload)
    cli = args.workload == "cli-cold"
    traced = bool(args.trace)
    env = workloads.child_env(args.root) if cli else None
    tracer = missing = None
    if not cli:
        import qstrange  # noqa: F401  (import cost belongs to setup, not run)
        if traced:
            tracer = spans.Tracer()
            missing = spans.install(tracer)

    def speed_scale():
        return stats.spawn_scale(env) if cli else stats.compute_scale()

    latencies, failed, failures, scales = [], [], [], []
    cli_dumps, process = [], []
    degree = bits = 0
    for index, item in enumerate(items):
        scales.append(speed_scale())
        if tracer is not None:
            tracer.item_id = index
        t0 = time.perf_counter()
        try:
            result = workloads.execute(item, env, traced)
        except Exception as exc:  # counted as a failed item, never dropped
            result, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.item_id = -1
        reasons = workloads.judge(item, result, expected)
        if error:
            reasons.append(error)
        latencies.append(latency)
        failed.append(bool(reasons))
        if reasons and len(failures) < MAX_REPORTED_FAILURES:
            failures.append({"id": item.id, "reasons": reasons})
        if result is not None:
            d, b = workloads.poly_sizes(item, result)
            degree, bits = max(degree, d), max(bits, b)
        if cli and traced and result is not None:
            probe = _cli_trace(result[2])
            if probe is not None:
                missing = probe["missing"]
                for span in probe["trace"]["spans"]:
                    span[2] = index
                cli_dumps.append(probe["trace"])
                run_spans = [s for s in probe["trace"]["spans"]
                             if probe["trace"]["names"][s[0]] == "cli.run"]
                process.append((index, latency - sum(s[4] - s[3]
                                                     for s in run_spans)))
    scales.append(speed_scale())
    # each item is scaled by the mean of the references just before and after
    item_scale = [(a + b) / 2 for a, b in zip(scales, scales[1:])]
    scaled = [t * k for t, k in zip(latencies, item_scale)]

    usage = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    out = {
        "run_s": sum(scaled),
        "raw_run_s": sum(latencies),
        "scale": statistics.median(scales),
        "latency_ms": [t * 1e3 for t in scaled],
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
        "max_degree": degree,
        "max_coeff_bits": bits,
    }
    if traced:
        dump = spans.merge(cli_dumps) if cli else tracer.dump()
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump(dump, fh, separators=(",", ":"))
        out["layers"] = spans.aggregate(dump)
        out["divisions"] = spans.divisions_under(
            dump, "exactpoly.exact_div", "dissection.verify_theorem")
        out["process_s"] = sum(t * item_scale[i] for i, t in process)
        out["missing"] = missing or []
    print(json.dumps(out, separators=(",", ":")))


if __name__ == "__main__":
    main()
