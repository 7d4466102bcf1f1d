"""Benchmark child process: set-up, timed passes, validation, tracing.

run.py starts one of these per workload run, with the checkout's ``src``
first on PYTHONPATH, and reads the JSON object on its last stdout line.
While it measures, the worker starts set-up-only copies of itself between
passes; with ``--setup-only`` it measures set-up and exits.

    python3 perfbench/worker.py --workload rk4-oracle --seed 1 --seconds 5 --out DIR
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Distinct pass inputs drawn during set-up.  Every run passes each of them
# at least once, and then cycles through them until its time is up, so the
# operations counted in ``attempted`` and ``failed`` depend on the seed only.
INPUT_COUNT = 10
# Set-up-only children per measuring run, started between passes at evenly
# spaced times, so that set-up is sampled over the same stretch of host
# speed as the passes.
SETUP_CHILDREN = 10


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_child(workload: str, seed: int) -> float:
    """Set-up time of a fresh ``--setup-only`` process."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(workload, inputs, seconds: float, trace: bool, outdir: Path, setup) -> dict:
    """Run passes for ``seconds``; the first pass is a discarded warm-up.

    Each input's first pass is validated and counted; every later pass of
    it is validated too and must find the same, or it is a mismatch.

    Without tracing every pass is untraced.  With tracing each input runs
    twice, untraced and traced, in alternating order, so the tracing
    overhead is a paired difference on the same input.  ``setup`` is called
    SETUP_CHILDREN times between passes and returns one set-up time each.
    """
    from harness import clear
    from tracer import PER_LAYER_UNITS, Tracer, median_metrics

    tracer = Tracer()
    walls, overheads, layer_passes = [], [], []
    failures, artifacts, mismatches = [], {}, []
    first_seen = {}  # input index -> what its first pass found, per op
    attempted = 0
    silent = False
    program_rss = None
    began = time.perf_counter()
    deadline = began + seconds
    setup_due = [began + seconds * (k + 0.5) / SETUP_CHILDREN
                 for k in range(SETUP_CHILDREN)]
    setups = []
    i = 0
    while i < max(2, len(inputs)) or time.perf_counter() < deadline:
        j = i % len(inputs)
        order = ((False, True) if i % 2 == 0 else (True, False)) if trace else (False,)
        wall = {}
        for traced in order:
            clear(outdir)
            first = len(tracer.spans)
            if traced:
                tracer.install()
            try:
                start = time.perf_counter()
                ops = workload.run_pass(inputs[j], outdir)
                wall[traced] = time.perf_counter() - start
            finally:
                tracer.uninstall()
            if program_rss is None:
                # The program's peak, before the harness parses any output.
                program_rss = peak_rss_mib()
            workload.validate(ops)
            found = [(op.label, op.rc, op.reasons, op.artifacts) for op in ops]
            if j not in first_seen:
                # The first pass of an input counts its operations.
                first_seen[j] = found
                for op in ops:
                    attempted += 1
                    silent = silent or op.silent
                    for name, digest in op.artifacts.items():
                        artifacts["%d/%s/%s" % (j, op.label, name)] = digest
                    if op.reasons:
                        failures.append(
                            {"input": j, "op": op.label, "inputs": op.inputs,
                             "reasons": op.reasons, "silent": op.silent}
                        )
            elif found != first_seen[j]:
                # A repeat must reproduce exit codes, reasons and bytes.
                mismatches.append({"pass": "%d%s" % (i, "t" if traced else ""),
                                   "input": j})
            if traced and i > 0:
                layer_passes.append(tracer.pass_metrics(first, wall[True]))
        if i > 0:
            walls.append(wall[False])
            if trace:
                overheads.append(wall[True] - wall[False])
        i += 1
        if setup_due and time.perf_counter() >= setup_due[0]:
            setup_due.pop(0)
            setups.append(setup())
    setups += [setup() for _ in setup_due]
    shutil.rmtree(outdir, ignore_errors=True)
    per_layer = {}
    if trace:
        per_layer = median_metrics(layer_passes)
        per_layer["trace.overhead_s"] = statistics.median(overheads)
    return {
        "passes": i,
        "walls": walls,
        "per_layer": per_layer,
        "per_layer_units": PER_LAYER_UNITS if trace else {},
        "spans": tracer.dump(),
        "attempted": attempted,
        "failures": failures,
        "silent": silent,
        "mismatches": mismatches,
        "artifacts": artifacts,
        "setup_children": setups,
        "peak_rss_mib": program_rss,
        "peak_rss_mib_end": peak_rss_mib(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # Set-up: import the package and draw the inputs, in this fresh process.
    t0 = time.perf_counter()
    import nclab

    import_s = time.perf_counter() - t0
    if Path(nclab.__file__).resolve().parent != ROOT / "src" / "nclab":
        print("nclab imported from %s, not from this checkout" % nclab.__file__,
              file=sys.stderr)
        return 2
    import numpy as np

    import harness

    workload = harness.WORKLOADS[args.workload]()
    inputs = workload.inputs(np.random.default_rng(args.seed), INPUT_COUNT)
    setup_s = time.perf_counter() - t0

    out = {"setup_s": setup_s, "import_s": import_s, "numpy": np.__version__}
    if not args.setup_only:
        out.update(measure(
            workload, inputs, args.seconds, bool(args.trace), args.out,
            setup=lambda: setup_child(args.workload, args.seed),
        ))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
