"""qlint benchmark: seeded workloads through the public API, checked and timed.

Usage (from the root of a qlint checkout):

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Each workload runs as a closed loop in this one process: a file is analysed
only after the previous one finished, always with every rule enabled. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
See bench/README.md for the definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "bench" / "out"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import qlint.report as qreport  # noqa: E402
from checks import Verdicts, check_flow, check_outcomes, raised  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, InputFile, write_inputs  # noqa: E402

from qlint import ALL_RULES, Config, analyze_paths, report_of  # noqa: E402

END_TO_END_UNITS = {
    "files_per_s": "files/s",
    "file_p50_ms": "ms",
    "file_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "frontend.parser.self_ms": "ms",
    "frontend.parser.stmts": "count",
    "frontend.unroll.self_ms": "ms",
    "frontend.unroll.stmts_out": "count",
    "frontend.unroll.kept_loops": "count",
    "frontend.constprop.self_ms": "ms",
    "frontend.cfg.self_ms": "ms",
    "frontend.cfg.blocks": "count",
    "frontend.cfg.edges": "count",
    "frontend.cfg.successors_calls": "count",
    "qir.gates.load_ms": "ms",
    "qir.gates.loads_per_file": "ratio",
    "qir.extract.self_ms": "ms",
    "qir.extract.events": "count",
    "qir.extract.unknown_events": "count",
    "qir.extract.diagnostics": "count",
    "qflow.build_ms": "ms",
    "qflow.pairs_ms": "ms",
    "qflow.directly_ms": "ms",
    "qflow.pairs": "count",
    "qflow.directly_pairs": "count",
    "qflow.directly_yield": "ratio",
    "qflow.growth_exp": "slope",
    "qflow.self_pairs_missed": "count",
    "analyses.rules_self_ms": "ms",
    "analyses.warnings": "count",
    "driver.suppress_ms": "ms",
    "driver.pool_ms": "ms",
    "report.format_ms": "ms",
    "trace.overhead": "ratio",
}
# per-layer metric -> span whose self time (ms per pass) it reports
_SELF_MS = {
    "frontend.parser.self_ms": "frontend.parser",
    "frontend.unroll.self_ms": "frontend.unroll",
    "frontend.constprop.self_ms": "frontend.constprop",
    "frontend.cfg.self_ms": "frontend.cfg",
    "qir.gates.load_ms": "qir.gates",
    "qir.extract.self_ms": "qir.extract",
    "qflow.build_ms": "qflow.build",
    "qflow.pairs_ms": "qflow.pairs",
    "qflow.directly_ms": "qflow.directly",
    "analyses.rules_self_ms": "analyses.rules",
    "driver.suppress_ms": "driver.suppress",
    "report.format_ms": "report.format",
}
# Counts summed over a pass; qflow.self_pairs_missed comes from the correctness pass.
_COUNTS = [n for n, unit in PER_LAYER_UNITS.items() if unit == "count" and n != "qflow.self_pairs_missed"]
_QFLOW = ("qflow.build", "qflow.pairs", "qflow.directly")
TAIL_LADDER = (50, 90, 95, 99, 99.9)
SETUP_RUNS = 15
SETUP_CODE = """\
import sys, time
started = time.perf_counter()
sys.path.insert(0, {src!r})
import qlint
from qlint.qir import load_gate_table
load_gate_table()
print(time.perf_counter() - started)
"""


def config_for(workload: str) -> Config:
    return Config(rules=ALL_RULES, jobs=2 if workload == "corpus-jobs2" else 1)


# --- running qlint ---


def analyse_set(paths: list[str], config: Config, failures: dict[str, str]):
    """One analyze_paths call over the set; if it raises, file by file.

    A file that raises is recorded in `failures` and the others still run.
    """
    try:
        return analyze_paths(paths, config)
    except Exception:  # isolate the file that raised
        outcomes = []
        for path in sorted(paths):
            try:
                outcomes += analyze_paths([path], config)
            except Exception as exc:
                failures.setdefault(path, raised(exc))
        return outcomes


def whole_set_pass(paths, config, failures):
    """What `qlint check --profile all --format json` does after parsing flags.

    Returns the (start, seconds) of the pass, the outcomes and the report.
    """
    gc.collect()
    started = perf_counter()
    outcomes = analyse_set(paths, config, failures)
    data = qreport.format_report(report_of(outcomes), "json")
    return (started, perf_counter() - started), outcomes, data


def per_file_pass(paths, config, failures, budget: float, host: HostSpeed):
    """Time to verdict of each file through its own analyze_paths call.

    Every file is timed once. Then, round after round, a file is timed again
    while one more sample fits in `budget` seconds (the mean file time of a
    whole-set pass), so the small files of a workload with a few large ones
    get more samples, spread over the pass rather than back to back.
    Returns each file's samples as (start, seconds).
    """
    gc.collect()
    samples: dict[str, list[tuple[float, float]]] = {path: [] for path in paths}
    used = dict.fromkeys(paths, 0.0)
    pending = list(paths)
    while pending:
        for path in pending:
            host.calibrate_if_due()
            started = perf_counter()
            try:
                (outcome,) = analyze_paths([path], config)
            except Exception as exc:
                failures.setdefault(path, raised(exc))
            else:
                if outcome.skipped is not None:
                    failures.setdefault(path, f"skipped: {outcome.skipped.message}")
            elapsed = perf_counter() - started
            samples[path].append((started, elapsed))
            used[path] += elapsed
        pending = [p for p in pending if used[p] + samples[p][-1][1] <= budget]
    return samples


def setup_sample() -> tuple[float, float]:
    """One fresh interpreter: (start, seconds) for `import qlint` + the bundled table.

    The start is the parent's clock when the interpreter was launched.
    """
    code = SETUP_CODE.format(src=str(ROOT / "src"))
    started = perf_counter()
    done = subprocess.run(
        [sys.executable, "-I", "-c", code],
        check=True, capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    return started, float(done.stdout.strip())


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """Highest ladder percentile with at least ten samples above it.

    With fewer than 20 samples no percentile has ten beyond it, and the
    maximum (p100) is reported.
    """
    best = (100.0, max(samples))
    for p in TAIL_LADDER:
        value = percentile(samples, p)
        if sum(1 for s in samples if s > value) >= 10:
            best = (p, value)
    return best


# --- correctness ---


def correctness(workload, inputs, paths, seed, reports, failures) -> Verdicts:
    """Untimed checks of what the measured passes produced, then flow facts.

    `reports` maps each distinct JSON report of the passes to its outcomes.
    Every pass must give the serial report: on `corpus-jobs2` it comes from
    one more serial pass, elsewhere from the passes themselves.
    """
    verdicts = Verdicts(dict(failures))
    serial = Config(rules=ALL_RULES)
    if config_for(workload) != serial:
        reference = analyse_set(paths, serial, verdicts.failures)
        expected = qreport.format_report(report_of(reference), "json")
    else:
        expected, reference = next(iter(reports.items()))
    check_outcomes(reference, inputs, verdicts)
    for data, outcomes in reports.items():
        if data == expected:
            continue
        ours = {o.path: (o.warnings, o.skipped) for o in outcomes}
        differing = [o.path for o in reference if ours.get(o.path) != (o.warnings, o.skipped)]
        for path in differing or ["<report>"]:
            verdicts.fail(path, f"{workload} report differs from the serial report")
    for path in paths:
        check_flow(path, inputs[path], serial, seed, verdicts)
    return verdicts


# --- traced run ---


def layer_metrics(tracers: list[Tracer], inputs: dict[str, InputFile]):
    """Per-layer metrics, per-file rows and growth slopes.

    Times are medians over traced passes; counts come from the last pass.
    """
    per_pass = [t.self_ms() for t in tracers]
    metrics: dict[str, float] = {}
    for metric, layer in _SELF_MS.items():
        metrics[metric] = statistics.median(
            sum(v for (_, name), v in ms.items() if name == layer) for ms in per_pass
        )
    metrics["driver.pool_ms"] = statistics.median(t.wall_ms("driver.pool") for t in tracers)
    counts = tracers[-1].counts()
    totals = {name: 0 for name in _COUNTS}
    for (_, name), value in counts.items():
        if name in totals:
            totals[name] += value
    metrics.update(totals)
    loads = sum(v for (_, name), v in counts.items() if name == "qir.gates.loads")
    metrics["qir.gates.loads_per_file"] = loads / len(inputs)
    metrics["qflow.directly_yield"] = (
        totals["qflow.directly_pairs"] / totals["qflow.pairs"] if totals["qflow.pairs"] else 0.0
    )

    rows = []
    for path, item in sorted(inputs.items(), key=lambda kv: kv[1].name):
        stage_ms = {
            layer: statistics.median(ms.get((path, layer), 0.0) for ms in per_pass)
            for layer in sorted({name for (_, name) in per_pass[-1]} - {"driver.pool", "report.format"})
        }
        rows.append(
            {
                "file": item.name,
                "half": item.kind,
                "ops": item.ops,
                "events": counts.get((path, "qir.extract.events"), 0),
                "pairs": counts.get((path, "qflow.pairs"), 0),
                "blocks": counts.get((path, "frontend.cfg.blocks"), 0),
                "qflow_ms": sum(stage_ms.get(layer, 0.0) for layer in _QFLOW),
                "stage_ms": stage_ms,
            }
        )
    slopes = growth_exponents(rows)
    metrics["qflow.growth_exp"] = max(slopes.values())  # the steeper half on scale
    return metrics, rows, slopes


def _slope(points: list[tuple[float, float]]) -> float:
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    var = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / var if var else 0.0


def growth_exponents(rows: list[dict]) -> dict[str, float]:
    """Log-log slope of qflow ms against events.

    On `scale`: from the 400-op to the 800-op file, per half. Elsewhere:
    least squares over all files with events, under the key "all" (0 when
    every file has the same event count).
    """
    halves: dict[str, list] = {}
    for row in rows:
        if row["ops"] in (400, 800):
            halves.setdefault(row["half"], []).append((row["events"], row["qflow_ms"]))
    if halves:
        return {half: _slope(points) for half, points in sorted(halves.items())}
    points = [(r["events"], r["qflow_ms"]) for r in rows if r["events"] and r["qflow_ms"] > 0]
    return {"all": _slope(points) if len(points) > 1 else 0.0}


# --- one run ---


def _until(seconds: float):
    """Yield once per iteration; stop when one as long as the last would end late.

    The first iteration always runs.
    """
    deadline = perf_counter() + seconds
    while True:
        started = perf_counter()
        yield
        if 2 * perf_counter() - started > deadline:
            return


def measure(paths, config, seconds, failures, reports) -> dict[str, tuple[float, str]]:
    """End-to-end metrics: whole-set and per-file passes, alternating.

    The set-up samples are spread over the run, so that they see the same
    machine as the passes do. Every time is scaled to the reference host
    speed by the calibration loop run between samples (see hostspeed.py),
    except thread-pool passes; the unscaled median is printed beside it.
    """
    host = HostSpeed()
    started = perf_counter()
    setup_sample()  # the first start writes the bytecode cache
    setups: list[tuple[float, float]] = []
    passes: list[tuple[float, float]] = []
    file_samples: dict[str, list[tuple[float, float]]] = {path: [] for path in paths}
    for _ in _until(seconds):
        host.calibrate_if_due()
        span, outcomes, data = whole_set_pass(paths, config, failures)
        host.calibrate()
        passes.append(span)
        reports.setdefault(data, outcomes)
        budget = span[1] / len(paths)
        for path, samples in per_file_pass(paths, config, failures, budget, host).items():
            file_samples[path] += samples
        due = math.ceil(SETUP_RUNS * (perf_counter() - started) / seconds)
        while len(setups) < min(due, SETUP_RUNS):
            host.calibrate_if_due()
            setups.append(setup_sample())
    while len(setups) < SETUP_RUNS:
        host.calibrate_if_due()
        setups.append(setup_sample())
    host.calibrate()
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def scaled(samples) -> list[float]:
        return [host.scaled(*sample) for sample in samples]

    def unscaled(samples) -> float:
        return statistics.median(elapsed for _, elapsed in samples)

    latencies = [statistics.median(scaled(samples)) * 1e3 for samples in file_samples.values()]
    raw_latencies = [unscaled(samples) * 1e3 for samples in file_samples.values()]
    tail_p, tail = tail_percentile(latencies)
    speed = statistics.median(host.factor(*span) for span in passes)
    count = sum(map(len, file_samples.values()))
    raw_rate = len(paths) / unscaled(passes)
    if config.jobs > 1:
        # The pool runs the pass on both CPUs; one thread's calibration does
        # not describe it, and scaling by it made the rate noisier, not steadier.
        rate, how = raw_rate, "unscaled: thread-pool pass"
    else:
        rate, how = len(paths) / statistics.median(scaled(passes)), f"unscaled {raw_rate:.4g}"
    return {
        "files_per_s": (
            rate,
            f"median of {len(passes)} whole-set passes; {how},"
            f" host speed factor {speed:.3f} from {len(host.times)} calibrations",
        ),
        "file_p50_ms": (
            percentile(latencies, 50),
            f"p50 of {len(latencies)} per-file medians over {count} samples;"
            f" unscaled {percentile(raw_latencies, 50):.4g}",
        ),
        "file_tail_ms": (
            tail,
            f"p{tail_p:g} of {len(latencies)} per-file medians; unscaled {tail_percentile(raw_latencies)[1]:.4g}",
        ),
        "setup_s": (
            statistics.median(scaled(setups)),
            f"median of {SETUP_RUNS} fresh interpreters; unscaled {unscaled(setups):.4g}",
        ),
        "peak_rss_mb": (peak_rss, "whole process, up to the end of the timed passes"),
    }


def measure_traced(paths, config, seconds, failures, reports):
    """Untraced and traced whole-set passes, alternating; times unscaled."""
    untraced, traced, tracers = [], [], []
    for _ in _until(seconds):
        (_, elapsed), outcomes, data = whole_set_pass(paths, config, failures)
        untraced.append(elapsed)
        reports.setdefault(data, outcomes)
        tracer = Tracer()
        with tracer.installed():
            (_, elapsed), outcomes, data = whole_set_pass(paths, config, failures)
        traced.append(elapsed)
        tracers.append(tracer)
        reports.setdefault(data, outcomes)
    overhead = statistics.median(untraced) / statistics.median(traced)
    return tracers, overhead


def run(workload: str, seed: int, seconds: float, trace: bool, files=None) -> dict:
    """Generate, measure for `seconds`, check; returns the printable result."""
    items = files if files is not None else WORKLOADS[workload](seed)
    config = config_for(workload)
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        inputs = write_inputs(items, Path(tmp))
        paths = sorted(inputs)
        failures: dict[str, str] = {}
        reports: dict[bytes, list] = {}  # distinct JSON reports of the passes
        if trace:
            tracers, overhead = measure_traced(paths, config, seconds, failures, reports)
        else:
            measured = measure(paths, config, seconds, failures, reports)
        verdicts = correctness(workload, inputs, paths, seed, reports, failures)
        lines = [f"bench {workload} seed={seed} files={len(paths)} trace={int(trace)}"]
        if trace:
            metrics, rows, slopes = layer_metrics(tracers, inputs)
            metrics["trace.overhead"] = overhead
            metrics["qflow.self_pairs_missed"] = len(verdicts.self_pairs_missed)
            out = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
            lines += _layer_lines(metrics, tracers, rows if workload == "scale" else [], slopes)
            tracers[-1].dump(
                OUT / f"trace-{workload}.json",
                {"workload": workload, "seed": seed, "rows": rows, "qflow.growth_exp": slopes},
            )
        else:
            out = {name: {"value": measured[name][0], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
            lines += [
                f"  {name:<14} {measured[name][0]:.6g} {unit}  ({measured[name][1]})"
                for name, unit in END_TO_END_UNITS.items()
            ]
    failed = len(verdicts.failures)
    lines.append(f"  {'fail_ratio':<14} {failed / len(paths):.6g} share  ({failed} of {len(paths)} files)")
    lines.append(
        f"  qflow.self_pairs_missed {len(verdicts.self_pairs_missed)}"
        " (kept-loop events never follow themselves: known defect, not a failure)"
    )
    lines += [f"  FAILED {Path(p).name}: {why}" for p, why in sorted(verdicts.failures.items())]
    return {
        "lines": lines,
        "result": {"correct": failed == 0, "attempted": len(paths), "failed": failed, "metrics": out},
    }


def _layer_lines(metrics, tracers, rows, slopes) -> list[str]:
    lines = [f"  traced passes: {len(tracers)}; trace.overhead is traced / untraced files_per_s"]
    lines += [f"  {name:<30} {metrics[name]:.6g} {unit}" for name, unit in PER_LAYER_UNITS.items() if name in metrics]
    shares = layer_shares(tracers[-1].self_ms())
    lines.append("  share of traced self time: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    if rows:
        lines.append(f"  qflow.growth_exp per half: {slopes}")
    for row in rows:
        total = sum(row["stage_ms"].values())
        stages = " ".join(f"{k}={v:.2f}" for k, v in row["stage_ms"].items())
        lines.append(
            f"  scale {row['file']}: ops={row['ops']} events={row['events']} pairs={row['pairs']} "
            f"blocks={row['blocks']} qflow={row['qflow_ms']:.2f}ms ({row['qflow_ms'] / total:.1%}) {stages}"
        )
    return lines


def layer_shares(self_ms: dict) -> dict[str, float]:
    """Share of each layer in the pass's per-file self time, largest first."""
    totals: dict[str, float] = {}
    for (_, layer), value in self_ms.items():
        if layer != "driver.pool":
            totals[layer] = totals.get(layer, 0.0) + value
    whole = sum(totals.values()) or 1.0
    return dict(sorted(((k, v / whole) for k, v in totals.items()), key=lambda kv: -kv[1]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(outcome["lines"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
