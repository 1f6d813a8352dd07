"""The causalrag benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cot-retrieval --seed 1 --seconds 20 --trace 0

It generates the workload's inputs from the seed, measures the program in
``src/`` for about ``--seconds`` seconds, checks the program's outputs and
prints every metric with its unit. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run. The exit code is 0 when every check passed, 1
when one failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
GENERATE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "items_per_s": "items/s",
    "item_ms.p50": "ms",
    "item_ms.tail": "ms",
    "setup_s": "s",
    "ingest_s": "s",
    "peak_rss_mb": "MB",
    "update_ms.p50": "ms",
    "update_ms.tail": "ms",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="causalrag benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", help="use these generated inputs instead of generating them")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "causalrag" / "__init__.py").is_file():
        print(f"error: no causalrag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import generate

    if not args.inputs and args.workload not in generate.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(generate.WORKLOADS)}", file=sys.stderr)
        return 2

    import causalrag

    if Path(causalrag.__file__).resolve().parent != ROOT / "src" / "causalrag":
        print(f"error: imported causalrag from {causalrag.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import layers
    import workloads

    work_dir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.inputs:
            inputs_dir = Path(args.inputs)
        else:
            inputs_dir = work_dir / "inputs"
            subprocess.run(
                [sys.executable, str(HERE / "generate.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--out", str(inputs_dir)],
                check=True, timeout=GENERATE_TIMEOUT_S,
            )
        inputs, outcome = workloads.measure(inputs_dir, work_dir, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    print(f"workload {inputs.workload}  seed {inputs.seed}  seconds {args.seconds:g}  trace {args.trace}  nproc {os.cpu_count()}")
    for note in outcome.notes:
        print(f"  {note}")
    if args.trace:
        names = sorted(k for k in outcome.metrics if k not in END_TO_END_UNITS)
        units = {name: layers.unit(name) for name in names}
    else:
        units = END_TO_END_UNITS
    metrics = {name: {"value": outcome.metrics[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    share = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"  {'failed_share':<36} {share:>14.6g} ratio ({outcome.failed} of {outcome.attempted} attempts)")
    for error in outcome.errors:
        print(f"  CHECK FAILED: {error}")
    correct = outcome.failed == 0 and not outcome.errors
    print(json.dumps({"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
