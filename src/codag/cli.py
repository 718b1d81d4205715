"""Config-driven command line: run experiments, generate data, report, recompute metrics.

Commands:
    run         --config C [--override k=v]... --out D [--jobs N]
    gen-data    --config C [--override k=v]... --out D
    report      --runs D
    eval-matrix --file F
    version

The config file is JSON with sections sequence/model/adapt/dg/aug plus
domain_order, seeds, variant, buffer_capacity and log_curves (see README).
Overrides use dotted paths (``dg.alpha=0``); values parse as JSON with
plain-string fallback. Every JSON file is read by ``nnmodel.read_json``.

Exit codes, each with one ``error:`` line: 2 when the command line, a config
or a matrix is refused, before anything is written (``CliError``), or when a
seed's run state is refused as that seed starts, so seeds that ran before it,
or beside it under ``--jobs``, keep what they wrote (``RunStateError``); 1 for
any other failure.
"""

import argparse
import json
import os
import sys

from . import __version__
from .evaluate import METRICS, metrics_from_grids, summarize
from .nnmodel import atomic_write, parse_json, read_json
from .orchestrate import ExperimentConfig, RunStateError, config_digest, run_experiment


class CliError(Exception):
    """A refused command line, config or matrix: exits 2."""


def apply_override(config: dict, assignment: str) -> None:
    """Apply ``dotted.path=value`` onto a nested config dict."""
    if "=" not in assignment:
        raise CliError(f"override must look like key=value, got {assignment!r}")
    path, raw_value = assignment.split("=", 1)
    try:
        value = parse_json(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    except ValueError as exc:  # a repeated key, or nesting too deep
        raise CliError(f"invalid config: {path}: {exc}") from None
    node = config
    keys = path.split(".")
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise CliError(f"invalid config: override path {path!r} is not a config section")
    node[keys[-1]] = value


def build_config(config_path: str, overrides) -> ExperimentConfig:
    try:
        raw = read_json(config_path)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc)) from None
    if isinstance(raw, dict):  # from_dict names any other top level
        for assignment in overrides or ():
            apply_override(raw, assignment)
    try:
        return ExperimentConfig.from_dict(raw)
    except ValueError as exc:
        raise CliError(f"{config_path}: invalid config: {exc}") from None


def cmd_run(args) -> int:
    if args.jobs < 1:
        raise CliError(f"--jobs must be at least 1, got {args.jobs}")
    config = build_config(args.config, args.override)
    results = run_experiment(config, args.out, jobs=args.jobs)
    agg = results["aggregate"]
    print(f"variant={config.variant} digest={results['config_digest'][:12]}")
    for name, _ in METRICS:
        entry = agg[name]
        if entry is None:
            print(f"  {name.upper():>4}: n/a")
        else:
            print(f"  {name.upper():>4}: {100 * entry['mean']:6.2f} ± {100 * entry['std']:.2f}")
    print(f"results written to {os.path.join(args.out, 'results.json')}")
    return 0


def cmd_gen_data(args) -> int:
    seq = build_config(args.config, args.override).sequence
    if seq.kind != "synthetic-rotated":
        raise CliError("gen-data only materializes synthetic-rotated sequences")
    os.makedirs(args.out, exist_ok=True)
    for i in range(seq.n_domains):
        ds = seq.domain(i)
        path = os.path.join(args.out, f"domain_{i:02d}.csv")
        rows = [[f"f{j}" for j in range(ds.d)] + ["label"]]
        rows += [[repr(float(v)) for v in row] + [str(int(label))]
                 for row, label in zip(ds.x, ds.labels)]
        atomic_write(path, "".join(",".join(row) + "\r\n" for row in rows).encode("ascii"))
        print(f"wrote {path} ({len(ds)} rows)")
    return 0


def _read_results(path: str) -> tuple[str, dict, dict[str, list[float]]]:
    """One results.json: its config's digest, its config without the seed list
    and, by metric, the seeds' non-null values."""
    res = read_json(path)
    try:
        metrics = [entry["metrics"] for entry in res["per_seed"].values()]
        values = {short: [m[key] for m in metrics if m[key] is not None]
                  for short, key in METRICS}
        config = res["config"]
        if not isinstance(config, dict) or not isinstance(config["variant"], str) or not all(
                type(v) in (int, float) for vs in values.values() for v in vs):
            raise TypeError("the config must be an object with a string variant, "
                            "and each metric a number or null")
        return config_digest(config), {k: v for k, v in config.items() if k != "seeds"}, values
    except KeyError as exc:
        raise ValueError(f"{path}: not a results file: missing key {exc}") from None
    except (ValueError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: not a results file: {exc}") from None


def _leaves(node, prefix: str = "") -> dict[str, str]:
    """A config's values as compact JSON, by dotted key."""
    if not isinstance(node, dict) or not node:
        return {prefix: json.dumps(node, separators=(",", ":"))}
    return {path: value for key, child in node.items()
            for path, value in _leaves(child, f"{prefix}.{key}" if prefix else key).items()}


def _row_labels(configs: list[dict]) -> list[str]:
    """A label per config row: its variant, then, if that variant has several
    configs, the values in which they differ (``codag dg.alpha=0.0``)."""
    leaves = [_leaves(config) for config in configs]
    variants = [config["variant"] for config in configs]
    return [" ".join([v, *(f"{k}={mine[k]}" for k in sorted(mine)
                           if len({p.get(k) for w, p in zip(variants, leaves) if w == v}) > 1)])
            for v, mine in zip(variants, leaves)]


def cmd_report(args) -> int:
    if not os.path.isdir(args.runs):
        raise CliError(f"runs directory not found: {args.runs}")
    paths = [os.path.join(root, "results.json")
             for root, _dirs, files in os.walk(args.runs) if "results.json" in files]
    if not paths:
        raise ValueError(f"no results.json files under {args.runs}")

    # One row per config digest, so seed shards pool and ablations do not.
    groups: dict[str, tuple[dict, list[dict[str, list[float]]]]] = {}
    for path in sorted(paths):
        digest, config, values = _read_results(path)
        groups.setdefault(digest, (config, []))[1].append(values)
    configs, shards = zip(*groups.values())
    rows = dict(zip(_row_labels(configs), shards))

    width = max(20, *(len(label) + 2 for label in rows))
    lines = [f"{'variant':<{width}}" + "".join(f"{name.upper():>16}" for name, _ in METRICS)]
    lines.append("-" * len(lines[0]))
    table = {}
    for label in sorted(rows):
        pooled = {short: [v for values in rows[label] for v in values[short]]
                  for short, _ in METRICS}
        table[label] = {name: {**summarize(v), "n": len(v)} if v else None
                        for name, v in pooled.items()}
        lines.append(f"{label:<{width}}" + "".join(
            f"{'n/a':>16}" if c is None else f"{100 * c['mean']:>9.2f} ±{100 * c['std']:5.2f}"
            for c in table[label].values()))
    print("\n".join(lines))
    report_path = os.path.join(args.runs, "report.json")
    atomic_write(report_path, json.dumps(table, indent=2).encode("utf-8"))
    print(f"report written to {report_path}")
    return 0


def cmd_eval_matrix(args) -> int:
    try:
        raw = read_json(args.file)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc)) from None
    if not isinstance(raw, dict) or "dg" not in raw:
        raise CliError(f"{args.file}: expected an object with a 'dg' grid "
                       "and optional 'da' grid")
    try:
        metrics = metrics_from_grids(raw["dg"], raw.get("da"))
    except ValueError as exc:
        raise CliError(f"{args.file}: {exc}") from None
    for name, key in (("TDA", "tda_mean"), ("TDG", "tdg_mean"), ("FA", "fa_mean"),
                      ("All", "all")):
        value = metrics[key]
        print(f"{name:>4}: " + ("n/a" if value is None else f"{100 * value:.2f}"))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="codag", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment from a config file")
    run.add_argument("--config", required=True, help="JSON experiment config")
    run.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                     help="config override, e.g. dg.alpha=0 (repeatable)")
    run.add_argument("--out", required=True,
                     help="output directory; a rerun continues its committed stages")
    run.add_argument("--jobs", type=int, default=1, help="parallel seed processes")
    run.set_defaults(func=cmd_run)

    gen = sub.add_parser("gen-data", help="write the synthetic domains as CSV files")
    gen.add_argument("--config", required=True)
    gen.add_argument("--override", action="append", default=[], metavar="KEY=VALUE")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen_data)

    rep = sub.add_parser("report", help="aggregate results.json files into a table")
    rep.add_argument("--runs", required=True, help="directory tree of runs")
    rep.set_defaults(func=cmd_report)

    ev = sub.add_parser("eval-matrix", help="recompute metrics from a saved matrix")
    ev.add_argument("--file", required=True, help="JSON file with 'dg' and optional 'da' grids")
    ev.set_defaults(func=cmd_eval_matrix)

    ver = sub.add_parser("version", help="print the package version")
    ver.set_defaults(func=lambda args: (print(__version__), 0)[1])
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, RunStateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
