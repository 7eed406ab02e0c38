"""permrel benchmark: one run of one workload.

    python3 perfbench/run.py --workload corpus|big-order|many-classes \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Each pass is a fresh worker process
(worker.py) doing set-up, solve and check; passes run one after another
with one thread each (a closed loop with one client).

--trace 0 repeats passes until --seconds have gone by, then reports the
median solve_s, setup_s and peak_rss_mb over the passes.  setup_s has at
least MIN_SETUP_SAMPLES samples: set-up-only processes make up the count.
Times are at the reference speed of speed.py: each pass samples the
machine's speed while it runs and scales its wall time by it.  The
summary line before the result gives the wall times as well.

--trace 1 runs one untraced and one traced pass, checks that their
answers agree, and reports the per-layer metrics of the traced pass plus
trace.overhead_s, the traced solve wall time minus the untraced one.
Neither pass samples the speed while it runs, so nothing but the tracer
runs inside the spans.  The spans go to perfbench/out/.

The last line of stdout is the JSON result.  The exit code is 0 when
every answer matched its pins, 1 when one did not, and 2 when the run
could not be made (no permrel sources, a worker failed).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

MIN_SETUP_SAMPLES = 5
# no pass starts later than LAST_START_S into the run, and every worker is
# killed at RUN_DEADLINE_S, so a run ends inside the 180 s it may take
LAST_START_S = 100.0
RUN_DEADLINE_S = 170.0

# one thread per process, and a fixed string hash so that counts repeat
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class RunError(Exception):
    """The run cannot produce a result."""


def run_pass(deadline, workload, seed, setup_only=False, trace_out=None, sampling=True):
    """One worker process; its JSON output as a dict."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("no time left for another pass")
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    if not sampling:
        cmd.append("--no-sampling")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    env = dict(os.environ, **WORKER_ENV)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout, check=False
        )
    except subprocess.TimeoutExpired:
        raise RunError("worker killed at the run's %.0f s deadline" % RUN_DEADLINE_S)
    lines = proc.stdout.decode("utf-8").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError("worker exited with %d" % proc.returncode)
    return json.loads(lines[-1])


def metric_units(kind):
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[kind]}


def report(values, kind):
    """Select and label the metrics that BENCHMARK.json names."""
    units = metric_units(kind)
    missing = sorted(set(units) - set(values))
    if missing:
        raise RunError("metrics not measured: %s" % ", ".join(missing))
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def untraced_run(workload, seed, seconds):
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    passes = []
    while not passes or time.monotonic() - start < min(seconds, LAST_START_S):
        passes.append(run_pass(deadline, workload, seed))
    setups = list(passes)
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(run_pass(deadline, workload, seed, setup_only=True))
    values = {
        "solve_s": statistics.median(p["solve_s"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }

    def listed(runs, key):
        return " ".join("%.3f" % p[key] for p in runs)

    summary = "passes=%d solve_s=[%s] solve_wall_s=[%s] setup_s=[%s] setup_wall_s=[%s]" % (
        len(passes),
        listed(passes, "solve_s"),
        listed(passes, "solve_wall_s"),
        listed(setups, "setup_s"),
        listed(setups, "setup_wall_s"),
    )
    return passes, report(values, "end_to_end"), summary


def traced_run(workload, seed):
    deadline = time.monotonic() + RUN_DEADLINE_S
    plain = run_pass(deadline, workload, seed, sampling=False)
    OUT_DIR.mkdir(exist_ok=True)
    trace_out = OUT_DIR / ("trace-%s-%d.json.gz" % (workload, seed))
    traced = run_pass(deadline, workload, seed, trace_out=trace_out, sampling=False)
    # an answer that changes under tracing counts as failed
    answers = plain["answers"], traced["answers"]
    differ = sum(answers[0].get(key) != answers[1].get(key) for key in answers[0].keys() | answers[1].keys())
    traced["failed"] = max(traced["failed"], differ)
    values = dict(traced["layers"])
    values["trace.overhead_s"] = traced["solve_wall_s"] - plain["solve_wall_s"]
    summary = "traced_solve_wall_s=%.3f untraced_solve_wall_s=%.3f spans=%d trace=%s" % (
        traced["solve_wall_s"],
        plain["solve_wall_s"],
        traced["spans"],
        trace_out.relative_to(ROOT),
    )
    return [plain, traced], report(values, "per_layer"), summary


def main(argv=None):
    parser = argparse.ArgumentParser(description="permrel benchmark: one run of one workload")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "permrel" / "__init__.py").is_file():
        print("run: no permrel sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    try:
        if args.trace:
            passes, metrics, summary = traced_run(args.workload, args.seed)
        else:
            passes, metrics, summary = untraced_run(args.workload, args.seed, args.seconds)
    except (RunError, OSError, ValueError) as exc:
        print("run: %s" % exc, file=sys.stderr)
        return 2
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(
        "workload=%s seed=%d trace=%d %s attempted=%d failed=%d fail_frac=%.6f"
        % (args.workload, args.seed, args.trace, summary, attempted, failed, failed / attempted)
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
