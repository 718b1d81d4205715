"""codag benchmark: three workloads through the real ``codag`` command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload readme-demo --seed 2022 --seconds 25 --trace 0

Each workload is a fixed list of ``codag`` invocations, run in child
processes and repeated until ``--seconds`` have passed (at least once).
With ``--trace 0`` it reports the end-to-end metrics (median over
repetitions); with ``--trace 1`` each repetition is followed by one with
span wrappers installed, and it reports the per-layer metrics plus the
tracing overhead. Every seed-run is checked: exit code, a well-formed
``results.json`` entry, final-row accuracies recomputed from the final
checkpoints, and its digest against ``golden.json`` and any earlier run of
the same source tree. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark sets no ``*_NUM_THREADS`` variable: pinning BLAS threads would
hide the ``--jobs`` oversubscription that ``ablation-sweep`` is there to show.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import checks
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CONFIG = os.path.join(ROOT, "configs", "default.json")
WORK = os.path.join(ROOT, ".bench_work")
DIGEST_CACHE = os.path.join(WORK, "digest-cache.json")

DEFAULT_SEED = 2022
SETUP_REPEATS = 4  # probes before and again after the repetitions
PROCESS_TIMEOUT_S = 150
CSV_ROWS_PER_DOMAIN = 4000

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "all_score": "fraction",
}


@dataclass
class Run:
    """One ``codag run`` invocation of a workload."""

    variant: str
    seeds: list[int]
    jobs: int
    overrides: list[str]

    def argv(self, out_dir: str) -> list[str]:
        args = ["run", "--config", CONFIG, "--out", out_dir, "--jobs", str(self.jobs)]
        for assignment in self.overrides:
            args += ["--override", assignment]
        return args


@dataclass
class Workload:
    name: str
    family: str  # workloads of one family share a config, so seed-runs share digests
    runs: list[Run]
    report: bool = False
    csv_dir: str | None = None


def make_workload(name: str, seed: int, work: str) -> Workload:
    """The invocations of ``name`` for workload seed ``seed``."""
    if name == "readme-demo":
        # The README quick start: 3 seeds, --jobs 1, curve logging on.
        seeds = [seed, seed + 1, seed + 2]
        return Workload(name, "default", [Run("codag", seeds, 1, [f"seeds={seeds}"])])
    if name == "ablation-sweep":
        seeds = [seed, seed + 1]
        runs = [Run(variant, seeds, 2, [f"variant={variant}", f"seeds={seeds}", "log_curves=false"])
                for variant in ("codag", "da-only", "dg-only")]
        return Workload(name, "default", runs, report=True)
    if name == "large-csv":
        seeds = [seed, seed + 1]
        csv_dir = os.path.join(work, "csv")
        overrides = ["sequence.kind=csv-folder", f"sequence.path={csv_dir}",
                     "buffer_capacity=2000", "adapt.epochs=6", "dg.epochs=6",
                     f"seeds={seeds}", "log_curves=false"]
        return Workload(name, "large-csv", [Run("codag", seeds, 1, overrides)], csv_dir=csv_dir)
    raise SystemExit(f"unknown workload {name!r}")


WORKLOADS = ("readme-demo", "ablation-sweep", "large-csv")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CODAG_SEED", None)  # it would replace the workload's seed list
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class ProcResult:
    code: int
    cpu_s: float
    maxrss_mb: float


def run_process(argv: list[str], log_path: str) -> ProcResult:
    """Run to completion in its own session; its rusage includes reaped pool workers."""
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                                cwd=ROOT, start_new_session=True)
    timer = threading.Timer(PROCESS_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcResult(proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def codag_argv(args: list[str], span_dir: str | None) -> list[str]:
    if span_dir is None:
        return [sys.executable, "-m", "codag.cli", *args]
    return [sys.executable, os.path.join(HERE, "traced_cli.py"), span_dir, *args]


@dataclass
class Iteration:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    codes: dict[str, int] = field(default_factory=dict)  # variant -> exit code; "report" too


def run_iteration(wl: Workload, out_root: str, span_dir: str | None = None) -> Iteration:
    """All of the workload's invocations once; times only the child processes."""
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    if span_dir is not None:
        shutil.rmtree(span_dir, ignore_errors=True)
        os.makedirs(span_dir)
    log = os.path.join(out_root, "codag.log")
    jobs = [(run.variant, run.argv(os.path.join(out_root, run.variant))) for run in wl.runs]
    if wl.report:
        jobs.append(("report", ["report", "--runs", out_root]))
    results = {}
    start = time.perf_counter()
    for key, args in jobs:
        results[key] = run_process(codag_argv(args, span_dir), log)
    wall = time.perf_counter() - start
    return Iteration(wall, sum(r.cpu_s for r in results.values()),
                     max(r.maxrss_mb for r in results.values()),
                     {key: r.code for key, r in results.items()})


def source_hash() -> str:
    """Digest of the program's sources and configs, to key remembered seed-run digests."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "codag"), os.path.dirname(CONFIG)):
        for name in sorted(os.listdir(base)):
            if name.endswith((".py", ".json")):
                h.update(name.encode())
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def load_json(path: str, default):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return default


class Checker:
    """Checks every seed-run of an iteration and tracks the digests seen."""

    def __init__(self, wl: Workload):
        from codag import cli
        from codag.rng import substream

        self.wl = wl
        self.golden = load_json(os.path.join(HERE, "golden.json"), {}).get(wl.family, {})
        self.source = source_hash()
        cache = load_json(DIGEST_CACHE, {})
        self.remembered = cache.get(self.source, {}).get(wl.family, {})
        self.digests: dict[str, str] = {}
        self.compared: dict[str, set[str]] = {}  # seed-run -> reference tables it met
        self.problems: list[str] = []
        self.test_sets = {}
        for run in wl.runs:
            seq_cfg = cli.build_config(CONFIG, run.overrides).sequence
            for seed in run.seeds:
                if seed not in self.test_sets:
                    seq = seq_cfg.build(split_seed=substream(seed, "data"))
                    self.test_sets[seed] = [(t.x, t.labels) for t in seq.test_sets]

    def check(self, it: Iteration, out_root: str) -> tuple[int, int, list[float]]:
        """(attempted, failed, All of each good seed-run) for one iteration."""
        attempted = failed = 0
        scores = []
        for run in self.wl.runs:
            out_dir = os.path.join(out_root, run.variant)
            results = load_json(os.path.join(out_dir, "results.json"), None)
            for seed in run.seeds:
                attempted += 1
                problems = self._check_one(it, run, seed, results, out_dir)
                if problems:
                    failed += 1
                    self.problems += [f"{run.variant}/{seed}: {p}" for p in problems]
                else:
                    scores.append(results["per_seed"][str(seed)]["metrics"]["all"])
        if self.wl.report:
            self.problems += self._check_report(it, out_root)
        return attempted, failed, scores

    def _check_one(self, it, run, seed, results, out_dir) -> list[str]:
        if it.codes[run.variant] != 0:
            return [f"codag run exited with {it.codes[run.variant]}"]
        try:
            entry = results["per_seed"][str(seed)]
        except (KeyError, TypeError):
            return ["results.json entry missing"]
        seed_dir = os.path.join(out_dir, f"seed{seed}")
        problems = checks.check_seed_run(entry, seed_dir, self.test_sets[seed], run.variant)
        if problems:
            return problems
        key = f"{run.variant}/{seed}"
        digest = checks.seed_run_digest(entry, seed_dir)
        references = {"golden": self.golden, "an earlier run": self.remembered,
                      "a repetition": self.digests}
        self.compared.setdefault(key, set()).update(
            name for name, table in references.items() if key in table)
        problems = checks.digest_mismatches(key, digest, references)
        self.digests[key] = digest
        return problems

    def _check_report(self, it, out_root) -> list[str]:
        if it.codes["report"] != 0:
            return [f"codag report exited with {it.codes['report']}"]
        table = load_json(os.path.join(out_root, "report.json"), None) or {}
        problems = []
        for run in self.wl.runs:
            results = load_json(os.path.join(out_root, run.variant, "results.json"), None)
            if results is None:
                continue
            want = statistics.fmean(e["metrics"]["all"] for e in results["per_seed"].values())
            got = (table.get(run.variant) or {}).get("all") or {}
            if got.get("n") != len(run.seeds) or abs(got.get("mean", -1.0) - want) > 1e-12:
                problems.append(f"report row {run.variant} does not match results.json")
        return problems

    def remember(self) -> None:
        """Store this run's digests for later runs of the same source tree."""
        if self.problems:
            return
        cache = load_json(DIGEST_CACHE, {})
        cache.setdefault(self.source, {}).setdefault(self.wl.family, {}).update(self.digests)
        tmp = DIGEST_CACHE + f".{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(cache, fh, indent=1, sort_keys=True)
        os.replace(tmp, DIGEST_CACHE)


def measure_setup(wl: Workload, repeats: int) -> list[float]:
    """Program-side set-up seconds, each in a fresh interpreter."""
    plan = json.dumps([[CONFIG, run.overrides, run.seeds] for run in wl.runs])
    samples = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), plan],
                             env=child_env(), cwd=ROOT, capture_output=True, text=True,
                             timeout=PROCESS_TIMEOUT_S, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def high_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest sample with at least ten samples above it."""
    ordered = sorted(samples)
    if len(ordered) < 11:
        return None
    rank = len(ordered) - 11
    return 100.0 * rank / (len(ordered) - 1), ordered[rank]


def environment() -> dict:
    import platform

    import numpy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "num_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def prepare(wl: Workload, work: str) -> None:
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    if wl.csv_dir is not None:
        code = run_process(codag_argv(
            ["gen-data", "--config", CONFIG, "--override",
             f"sequence.n_per_domain={CSV_ROWS_PER_DOMAIN}", "--out", wl.csv_dir], None),
            os.path.join(work, "gen-data.log")).code
        if code != 0:
            raise SystemExit(f"codag gen-data exited with {code}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(SRC, "codag", "cli.py")) and os.path.isfile(CONFIG)):
        print(f"error: no codag sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    wl = make_workload(args.workload, args.seed, work)
    env = environment()
    env["loadavg_before"] = os.getloadavg()
    try:
        prepare(wl, work)
        measure_setup(wl, 1)  # warms the file cache
        setup = measure_setup(wl, SETUP_REPEATS)
        checker = Checker(wl)
        untraced: list[Iteration] = []
        traced: list[dict] = []
        attempted = failed = 0
        scores: list[float] = []
        out_root = os.path.join(work, "out")
        span_dir = os.path.join(work, "spans")
        start = time.perf_counter()
        while True:
            it = run_iteration(wl, out_root)
            a, f, s = checker.check(it, out_root)
            attempted, failed, scores = attempted + a, failed + f, scores + s
            untraced.append(it)
            if args.trace:
                it = run_iteration(wl, out_root, span_dir)
                a, f, s = checker.check(it, out_root)
                attempted, failed = attempted + a, failed + f
                span_list = spans.load_spans(span_dir)
                layers = spans.layer_metrics(span_list)
                layers["trace.wall_s"] = it.wall_s
                gap = spans.subtree_self_gap(span_list, "orchestrate.run_seed")
                if gap > 1e-6:
                    checker.problems.append(f"self times under run_seed miss its span by {gap} s")
                traced.append(layers)
            if time.perf_counter() - start >= args.seconds:
                break
        # Probes before and after the repetitions see the host at both ends of the run.
        setup += measure_setup(wl, SETUP_REPEATS)
        checker.remember()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()

    samples = {
        "wall_s": [it.wall_s for it in untraced],
        "cpu_s": [it.cpu_s for it in untraced],
        "setup_s": setup,
        "peak_rss_mb": [it.peak_rss_mb for it in untraced],
    }
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {wl.name} seed {args.seed} repetitions {len(untraced)}"
          f" traced {len(traced)} seconds {args.seconds}")
    # readme-demo and ablation-sweep share the "default" golden table, so their
    # common codag seed-runs are checked against one digest: that is the cross-check.
    for key, digest in sorted(checker.digests.items()):
        variant, seed = key.split("/")
        refs = ", ".join(sorted(checker.compared.get(key, ()))) or "no reference"
        print(f"digest {wl.name} {variant} {seed} {digest} compared with: {refs}")
    for problem in checker.problems:
        print(f"problem: {problem}")
    print(f"error_rate {failed / attempted:.4f} fraction ({failed} of {attempted} seed-runs)")

    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["all_score"] = statistics.fmean(scores) if scores else 0.0
    print("samples " + json.dumps(samples))
    for name, unit in END_TO_END.items():
        values = samples.get(name, [metrics[name]])
        hi = high_percentile(values)
        hi_text = f"p{hi[0]:.0f} {hi[1]:.6g}" if hi else "p_hi n/a (< 11 samples)"
        print(f"metric {name} {metrics[name]:.6g} {unit} median of {len(values)}; {hi_text}")

    if args.trace:
        wall = statistics.median(it.wall_s for it in untraced)
        layer_values = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
        layer_values["trace.overhead_frac"] = layer_values.pop("trace.wall_s") / wall - 1.0
        out = {name: {"value": layer_values[name], "unit": unit}
               for name, (unit, _better) in spans.LAYER_METRICS.items()}
        for name, entry in out.items():
            print(f"layer {name} {entry['value']:.6g} {entry['unit']}")
    else:
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
    correct = failed == 0 and not checker.problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
