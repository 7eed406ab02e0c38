"""One pass of a workload, in a fresh process: set-up, then solve, then
the check of every answer.  run.py starts it; it prints one JSON object.

    python3 perfbench/worker.py --workload big-order --seed 1 [--setup-only]
        [--no-sampling] [--trace-out perfbench/out/big-order-1.json.gz]

Set-up is ``import permrel`` plus building the workload's top-level groups
and their mult/inv tables.  Solve runs from the end of set-up until the
last answer has been checked.  Each is timed by a ``speed.Speedometer``:
``*_wall_s`` is the wall time, ``*_s`` the time at the reference speed;
set-up samples the "python" chunk, because numpy's import is part of it.
--no-sampling times the machine's speed only before and after each span
(the traced run uses it for both of its passes).  With --trace-out the
pass is traced: the wrappers go in after the import and come out before
the output is made.
"""

import argparse
import contextlib
import functools
import json
import resource
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--no-sampling", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    if not (SRC / "permrel" / "__init__.py").is_file():
        print("worker: no permrel sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import speed
    import tracer as tracing
    import workloads

    pins = workloads.load_pins()
    tracer = tracing.Tracer() if args.trace_out else None
    interval = 0 if args.no_sampling else speed.INTERVAL_S

    setup = speed.Speedometer("python", interval).start()
    import permrel
    import permrel.cli  # noqa: F401  (the corpus command's module)

    if Path(permrel.__file__).resolve().parent != SRC / "permrel":
        setup.stop()
        print("worker: imported permrel from %s" % permrel.__file__, file=sys.stderr)
        return 2
    with tracer if tracer is not None else contextlib.nullcontext():
        groups = workloads.build_groups(args.workload, args.seed, pins)
        setup.stop()
        out = {"setup_s": setup.ref_s, "setup_wall_s": setup.wall_s, "setup_speed": setup.speed}
        if not args.setup_only:
            on_answer = None if tracer is None else functools.partial(setattr, tracer, "run")
            with speed.Speedometer("mixed", interval) as solve:
                answers, failed = workloads.solve(args.workload, groups, pins, on_answer)
            out["solve_s"] = solve.ref_s
            out["solve_wall_s"] = solve.wall_s
            out["solve_speed"] = solve.speed
            out["attempted"] = workloads.attempted(args.workload, pins)
            out["failed"] = failed
            out["answers"] = answers
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer.spans)
        out["spans"] = len(tracer.spans)
        tracer.write(args.trace_out, {"workload": args.workload, "seed": args.seed})
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
