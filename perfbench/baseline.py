"""Run the benchmark over several seeds and summarize every metric.

Usage (from the repository root):

    python3 perfbench/baseline.py --seeds 1-10 --trace-seeds 1-3 --out perfbench/baseline.json

For each workload it runs ``run.py`` once per seed with ``--trace 0`` and
once per trace seed with ``--trace 1``. Per metric it reports the median,
the quartiles, the spread (quartile distance over the median, the figure a
bound is judged against), the highest percentile with at least ten samples
above it, and the sample count. Repetition-level samples of the end-to-end
timings are pooled across runs for that percentile. Each result set keeps
the environment ``run.py`` printed, load average included.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from run import high_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    if not text:
        return []
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    parsed = {"result": json.loads(lines[-1]), "run_s": time.perf_counter() - start}
    for line in lines:
        tag, _, rest = line.partition(" ")
        if tag in ("env", "samples"):
            parsed[tag] = json.loads(rest)
    return parsed


def summarize(values: list[float], pooled: list[float] | None = None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    out = {"median": med, "q1": q1, "q3": q3, "n": len(values), "values": values,
           "spread": (q3 - q1) / med if med else None}
    samples = pooled or values
    high = high_percentile(samples)
    if high is not None:
        out["p_high"] = {"percentile": high[0], "value": high[1], "n": len(samples)}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="readme-demo,ablation-sweep,large-csv")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seeds", default="")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--out", default=None, help="write the summary here as JSON")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]

    summary = {"run_seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, seconds, 0) for seed in parse_seeds(args.seeds)]
        traced = [run_once(workload, seed, seconds, 1) for seed in parse_seeds(args.trace_seeds)]
        entry = {"seeds": parse_seeds(args.seeds), "trace_seeds": parse_seeds(args.trace_seeds),
                 "correct": all(r["result"]["correct"] for r in runs + traced),
                 "attempted": sum(r["result"]["attempted"] for r in runs + traced),
                 "failed": sum(r["result"]["failed"] for r in runs + traced),
                 "environment": [r["env"] for r in runs + traced],
                 "repetitions": [r["samples"] for r in runs],
                 "run_s": [r["run_s"] for r in runs + traced],
                 "end_to_end": {}, "per_layer": {}}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            pooled = [v for r in runs for v in r["samples"].get(name, [])]
            entry["end_to_end"][name] = summarize(values, pooled)
            entry["end_to_end"][name]["unit"] = metric["unit"]
            spread = entry["end_to_end"][name]["spread"]
            print(f"{workload} {name}: median {entry['end_to_end'][name]['median']:.6g}"
                  f" spread {spread:.4f} (bound {metric['bound']})", flush=True)
        for metric in bench["per_layer"] if traced else ():
            name = metric["name"]
            values = [r["result"]["metrics"][name]["value"] for r in traced]
            entry["per_layer"][name] = summarize(values)
            entry["per_layer"][name]["unit"] = metric["unit"]
        summary["workloads"][workload] = entry
        print(f"{workload}: correct={entry['correct']} failed={entry['failed']}"
              f" of {entry['attempted']}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
