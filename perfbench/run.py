"""The confcohom benchmark.

Usage, from the root of a source checkout (``src`` is put on the path, no
install step)::

    python3 perfbench/run.py --workload strata --seed 1 --seconds 36 --trace 0

One run generates its inputs from ``--seed``, measures set-up, then runs
passes over the workload's query list -- each pass in a fresh process, one
query at a time (a single client in a closed loop) -- for as long as another
pass is expected to end within ``--seconds``, and at least twice.  Every
answer is checked against ``reference.py`` and, where one was recorded,
against the recorded digest of the answer, outside the timed section.

``--trace 0`` reports the end-to-end metrics, medians over the passes of the
run.  Wall time is reported as ``wall_rel``: a pass's wall time divided by
the mean time of a fixed loop (``calibrate.py``) that the pass times all
through itself -- for ``cli_session``, of a fresh interpreter running that
loop -- so that the drift of a shared host's speed cancels out.  The raw
``wall_s`` is in the summary lines.  ``--trace 1`` runs traced passes
(wrappers from ``tracer.py``) and untraced passes alternately, and reports
the per-layer metrics.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give each metric's median, quartiles and sample count, and the run's
environment; the same goes to ``perfbench/out/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
SETUP_SPAWNS = 11
#: End-to-end runs spawn this many before the first pass and after each pass,
#: so that ``setup_s`` is a median over the whole run, not one moment of it.
SETUP_SPAWNS_FIRST = 5
SETUP_SPAWNS_BETWEEN = 3
#: Fewest passes (traced runs: traced/untraced pairs) in a run.
MIN_PASSES = 2
#: A run must end within 180 s; no pass starts that could end after this.
DEADLINE_S = 165.0

END_TO_END = {"wall_rel": "loops", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER_TIMES = (
    "polyarith.mul_s",
    "polyarith.falling_product_s",
    "polyarith.self_s",
    "combinat.stable_partitions_s",
    "combinat.self_s",
    "confspace.self_s",
    "charseries.config_trace_s",
    "charseries.induce_blocks_s",
    "charseries.self_s",
    "repstab.decompose_series_s",
    "repstab.stability_report_s",
    "repstab.self_s",
)

#: Import target whose start-up cost ``setup_s`` measures, per workload.
SETUP_IMPORT = {"cli_session": "confcohom.cli"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # String hashing order changes allocation patterns, and with them peak
    # RSS, from one process to the next; a fixed hash seed keeps RSS steady.
    env["PYTHONHASHSEED"] = "0"
    env.pop("CONFCOHOM_MAX_M", None)
    return env


def median(values) -> float:
    """Median, or 0.0 when every pass failed and there is nothing to report."""
    return statistics.median(values) if values else 0.0


def trimmed_mean(values, cut: float = 0.1) -> float:
    """Mean without the lowest and highest ``cut`` share of the values.

    Not the median: the host switches between a fast and a slow speed many
    times a second, and the mean follows the mix of the two that a pass
    met, where the median jumps from one to the other.
    """
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.fmean(ordered[k:len(ordered) - k])


def quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spawn_seconds(code: str, times: int) -> list[float]:
    """Wall time of fresh interpreters running ``code``."""
    out = []
    for _ in range(times):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT, check=True)
        out.append(time.perf_counter() - t0)
    return out


def run_pass(spec: dict, mode: str, trace: bool, timeout: float, span_file: Path | None,
             calibrate: str | None = None) -> dict:
    job = dict(spec, mode=mode, trace=trace, calibrate=calibrate, root=str(ROOT),
               span_file=str(span_file) if span_file else None)
    # The worker gets its own process group, so that a timeout also ends
    # the CLI processes it started.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(json.dumps(job), timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"pass worker failed ({proc.returncode}): {stderr[-2000:]}")
    return json.loads(stdout)


def check_pass(spec: dict, doc: dict, checker: reference.Checker, problems: list) -> int:
    """Check every answer of one pass; return the number of failed queries."""
    failed = 0
    for q, r in zip(spec["queries"], doc["results"]):
        if "argv" in q:
            if r["exit"] is None:
                found = [r.get("error", "no exit code")]
            else:
                found = checker.cli(q, r["exit"], r["stdout"])
        else:
            found = checker.library(q, r["answer"], r["error"])
        if found:
            failed += 1
            problems.append({"query": q["key"], "problems": found[:3]})
    return failed


class Run:
    """Passes of one workload, with the counts the result line needs."""

    def __init__(self, spec: dict, seconds: float, started: float):
        self.spec = spec
        self.seconds = seconds
        self.started = started
        self.checker = reference.Checker(spec["spaces"], load_digests())
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.durations: list[float] = []
        #: How passes calibrate (``calibrate.py``): "loop", "spawn" or None.
        self.calibrate: str | None = None

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def start_measuring(self, passes_per_round: int):
        self.t_end = self.elapsed() + self.seconds
        self.per_round = passes_per_round

    def more(self, rounds: int) -> bool:
        """Start another round only if it should end inside the window."""
        if not self.durations:
            return True
        expected = self.per_round * median(self.durations)
        if self.elapsed() + 1.2 * self.per_round * max(self.durations) > DEADLINE_S:
            return False
        return rounds < MIN_PASSES or self.elapsed() + expected <= self.t_end

    def one(self, mode: str, trace: bool, span_file: Path | None = None) -> dict | None:
        t0 = time.perf_counter()
        n = len(self.spec["queries"])
        self.attempted += n
        try:
            doc = run_pass(self.spec, mode, trace, DEADLINE_S + 10 - self.elapsed(), span_file,
                           self.calibrate)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            self.failed += n
            self.problems.append({"query": "pass", "problems": [str(exc)[:2000]]})
            return None
        self.durations.append(time.perf_counter() - t0)
        self.failed += check_pass(self.spec, doc, self.checker, self.problems)
        return doc


def load_digests() -> dict[str, str]:
    return json.loads((HERE / "digests.json").read_text())


def write_space_files(spec: dict) -> None:
    for name, doc in spec["spaces"].items():
        path = ROOT / workloads.space_file(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, sort_keys=True))


def tail_index(n: int) -> int:
    """Rank of the highest percentile with at least ten samples beyond it."""
    return n - 11


def measure_end_to_end(run: Run, workload: str) -> dict:
    module = SETUP_IMPORT.get(workload, "confcohom")
    setup = spawn_seconds(f"import {module}", SETUP_SPAWNS_FIRST)
    mode = "cli" if workload == "cli_session" else "library"
    samples = {"wall_rel": [], "wall_s": [], "calib_s": [], "slowest_query_s": [], "peak_rss_mb": []}
    p50, tails = [], []
    run.calibrate = "spawn" if mode == "cli" else "loop"
    run.start_measuring(1)
    done = 0
    while run.more(done):
        doc = run.one(mode, False)
        done += 1
        if doc is None:
            break
        setup += spawn_seconds(f"import {module}", SETUP_SPAWNS_BETWEEN)
        latencies = sorted(r["seconds"] for r in doc["results"])
        calib = trimmed_mean(doc["calib_s"])
        samples["wall_rel"].append(doc["wall_s"] / calib)
        samples["wall_s"].append(doc["wall_s"])
        samples["calib_s"].append(calib)
        samples["slowest_query_s"].append(latencies[-1])
        samples["peak_rss_mb"].append(doc["peak_rss_mb"])
        if workload == "cli_session":
            p50.append(1000 * median(latencies))
            tails.append(1000 * latencies[tail_index(len(latencies))])
    samples["setup_s"] = setup
    if p50:
        n = len(run.spec["queries"])
        samples["invoke_p50_ms"] = p50
        samples[f"invoke_tail_ms (p{100 * (tail_index(n) + 1) / n:.0f})"] = tails
    return samples


def measure_per_layer(run: Run, workload: str, seed: int) -> tuple[dict, dict]:
    interp = spawn_seconds("pass", SETUP_SPAWNS)
    imported = spawn_seconds(f"import {SETUP_IMPORT.get(workload, 'confcohom')}", SETUP_SPAWNS)
    mode = "cli_inprocess" if workload == "cli_session" else "library"
    trace_dir = OUT / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    traced, untraced, counts = [], [], []
    times = {name: [] for name in (*tracer.GROUPS, *(f"{l}.self_s" for l in tracer.LAYERS))}
    run.start_measuring(2)
    done = 0
    while run.more(done):
        span_file = trace_dir / f"{workload}-seed{seed}-pass{done}.json"
        doc = run.one(mode, True, span_file)
        if doc is None:
            break
        traced.append(doc["wall_s"])
        counts.append(doc["trace"]["counts"])
        for name, value in doc["trace"]["times"].items():
            times[name].append(value)
        doc = run.one(mode, False)
        done += 1
        if doc is None:
            break
        untraced.append(doc["wall_s"])
    samples = {name: values for name, values in times.items()}
    samples["cli.interpreter_s"] = interp
    samples["cli.import_s"] = [median(imported) - median(interp)]
    samples["trace.overhead_ratio"] = [median(traced) / median(untraced)] if untraced else []
    first = counts[0] if counts else {}
    exact = {name: first.get(name, 0) for name in tracer.COUNTS}
    scanned = exact["combinat.partitions_scanned"]
    exact["combinat.stable_hit_ratio"] = exact["combinat.stable_found"] / scanned if scanned else 0.0
    extra = {"counts_repeat": all(c == first for c in counts), "traced_passes": len(traced)}
    return samples, {"exact": exact, **extra}


PER_LAYER_UNITS = {
    "combinat.stable_hit_ratio": "1",
    "trace.overhead_ratio": "1",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
}


def per_layer_metrics(samples: dict, exact: dict) -> dict:
    metrics = {}
    for name in PER_LAYER_TIMES + ("cli.interpreter_s", "cli.import_s"):
        metrics[name] = {"value": median(samples[name]), "unit": "s"}
    for name in tracer.COUNTS:
        metrics[name] = {"value": exact[name], "unit": "count"}
    metrics["combinat.stable_hit_ratio"] = {"value": exact["combinat.stable_hit_ratio"], "unit": "1"}
    metrics["trace.overhead_ratio"] = {"value": median(samples["trace.overhead_ratio"]), "unit": "1"}
    return metrics


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    try:
        # The ceiling stops git from reporting a repository that encloses the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, env=env)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def summary_lines(samples: dict, units: dict) -> list[str]:
    lines = []
    for name, values in samples.items():
        if not values:
            continue
        q1, q3 = quartiles(values)
        lines.append(
            f"{name:34s} median {median(values):.6g} {units.get(name, 's')}"
            f"  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="'smoke' runs tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "confcohom" / "__init__.py").is_file():
        sys.stderr.write(f"no confcohom sources under {ROOT / 'src'}; run from a source checkout\n")
        return 2

    spec = workloads.generate(args.workload, args.seed, args.size)
    write_space_files(spec)
    run = Run(spec, args.seconds, started)
    env = environment(args.seed)
    if args.trace:
        samples, extra = measure_per_layer(run, args.workload, args.seed)
        metrics = per_layer_metrics(samples, extra["exact"])
    else:
        samples = measure_end_to_end(run, args.workload)
        metrics = {name: {"value": median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}

    units = {**END_TO_END, **PER_LAYER_UNITS}
    units.update({k: "ms" for k in samples if k.startswith("invoke_")})
    lines = summary_lines(samples, units)
    fail_ratio = run.failed / run.attempted if run.attempted else 1.0
    lines.append(f"fail_ratio {fail_ratio:.6g} ({run.failed}/{run.attempted} queries); "
                 f"{run.checker.digest_checked} answers compared with recorded digests")
    if args.trace:
        lines.append("exact counts: " + json.dumps(extra["exact"], sort_keys=True))
        lines.append(f"counts repeat across traced passes: {extra['counts_repeat']}")
    for problem in run.problems[:10]:
        lines.append("FAILED " + json.dumps(problem))
    lines.append("environment: " + json.dumps(env, sort_keys=True))

    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": metrics,
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "size": args.size,
              "environment": env, "samples": samples, "problems": run.problems,
              "result": result, "elapsed_s": time.perf_counter() - started}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, size {args.size}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
