"""Run one benchmark workload and print its metrics.

    python3 steadybench/run.py --workload serve_mixed --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The program is started from the
checkout's ``src/`` (pure Python, nothing to build).  With ``--trace 0``
the last line of standard output is a JSON object whose ``metrics``
are the gated end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are the per-layer metrics of a traced run.  The lines
before it name every end-to-end metric of the workload with its unit,
and the diagnostics (``loadgen.cpu_share``, ``cpu_share.<role>``,
``window.drift_ratio``, ``host.calib_ms``).  Every answer is checked
after the timed window; a wrong answer makes ``correct`` false.

The gated metrics are scaled to the reference host speed of
:mod:`probe`, measured beside the program all through the run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The gated end-to-end metrics every workload reports, with units.
#: ``work_per_s`` is ingest events, reads or L* items per second;
#: ``op_p50_ms`` times one ingest ack, one read or one reproduce pass
#: (see README.md for the mapping per workload).  The times and rates
#: are scaled to the probe's reference host speed.
GATED = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
}


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    from probe import HostProbe
    from proc import MAIN, SIDE
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; expected one of "
            f"{sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workdir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        src=src,
        workdir=workdir,
    )
    try:
        os.sched_setaffinity(0, {SIDE})
        ctx.probe = HostProbe(workdir, sorted({MAIN, SIDE}))
        outcome = WORKLOADS[args.workload](ctx)
    except Exception:
        traceback.print_exc()
        for program in ctx.programs:
            tail = program.error_tail()
            if tail.strip():
                print(f"--- {program.role} stderr\n{tail}", file=sys.stderr)
        return 1
    finally:
        for program in ctx.programs:
            program.close()
        if ctx.probe is not None:
            ctx.probe.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    for name, (value, unit) in outcome.named.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    diagnostics = {
        name: None if value != value else value  # NaN: too few ops
        for name, value in outcome.diagnostics.items()
    }
    print("diagnostics " + json.dumps(diagnostics, sort_keys=True))
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    if args.trace:
        metrics = {
            name: {"value": value, "unit": _unit(name)}
            for name, value in outcome.per_layer.items()
        }
    else:
        metrics = {
            name: {"value": outcome.gated[name], "unit": unit}
            for name, unit in GATED.items()
        }
    print(
        json.dumps(
            {
                "correct": not outcome.problems,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def _unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith("_ms_per_op"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio") or name.endswith("share"):
        return "ratio"
    if name.endswith("bytes_per_event"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
