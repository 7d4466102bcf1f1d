"""nclab benchmark: run one workload (or all), check its outputs, print metrics.

    python3 perfbench/run.py --workload figure-report --seed 1 --seconds 55 --trace 0

Each workload runs in a measuring child process of its own, one after
another.  The child times ``import nclab`` plus input generation, runs timed
passes for ``--seconds``, validates every operation, and between passes
starts set-up-only processes that time the same set-up again.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of the traced run.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; the full record
(environment, failures with reasons, artifact hashes, spans) is written under
``.perfbench_out/`` in the checkout.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("figure-report", "rk4-oracle", "wigner-spectrum", "simulate-both")

# Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "wall_s": "s", "wall_s_tail": "s", "setup_s": "s", "peak_rss_mib": "MiB",
}
# Metrics kept in the run record but left off the result line.  The median
# pass time follows the host's speed from run to run by more than any bound
# BENCHMARK.json may set; the per-layer metrics after it move only on
# rk4-oracle and simulate-both, which BENCHMARK.json does not list.
RECORD_ONLY = (
    "wall_s",
    "dynamics.write_csv.busy_s", "dynamics.write_csv.rows", "dynamics.write_csv.bytes",
    "dynamics.integrate_numeric.busy_s", "dynamics.rk4_steps", "dynamics.rk4_step_us",
)

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def tail(samples: list) -> tuple:
    """(value, percentile) of the highest sample with TAIL_BEYOND beyond it.

    With too few samples for that, the maximum at percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def git_commit():
    """HEAD of the checkout, read from .git without leaving it; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(numpy_version: str) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            models = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(models, None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "cpu_model": cpu or platform.processor() or None,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
    }


def child(args: list, timeout: float) -> dict:
    """Run worker.py and parse its last stdout line; raises on failure."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("NCLAB_OUT", None)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")] + args,
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError("worker %s exited %d: %s" % (
            " ".join(args), proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """The measuring child of one workload run; returns the full record."""
    outdir = OUT / ("work-%s-%d" % (name, os.getpid()))
    raw = child(
        ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds),
         "--trace", str(trace), "--out", str(outdir)],
        seconds + 90,
    )
    record = build_record(name, seed, seconds, trace, raw)
    if trace:
        spans_path = OUT / ("spans-%s-seed%d.json" % (name, seed))
        spans_path.write_text(json.dumps(raw["spans"]))
        record["spans_file"] = spans_path.name
    return record


def build_record(name, seed, seconds, trace, raw: dict) -> dict:
    """Metrics and report fields from a measuring child's raw output."""
    failed = len(raw["failures"])
    setups = [raw["setup_s"]] + raw["setup_children"]
    wall_tail, pct = tail(raw["walls"])
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(raw["numpy"]),
        "correct": not raw["silent"] and not raw["mismatches"],
        "attempted": raw["attempted"],
        "failed": failed,
        "error_rate": {"value": failed / raw["attempted"], "failed": failed,
                       "attempted": raw["attempted"]},
        "passes": raw["passes"],
        "samples": len(raw["walls"]),
        "walls": raw["walls"],
        "wall_s_tail_percentile": pct,
        "setup_samples": setups,
        "import_s": raw["import_s"],
        "peak_rss_mib_end": raw["peak_rss_mib_end"],
        "end_to_end": {
            "wall_s": statistics.median(raw["walls"]),
            "wall_s_tail": wall_tail,
            "setup_s": statistics.median(setups),
            "peak_rss_mib": raw["peak_rss_mib"],
        },
        "failures": raw["failures"],
        "mismatches": raw["mismatches"],
        "artifacts_sha256": raw["artifacts"],
    }
    if trace:
        record["per_layer"] = raw["per_layer"]
        record["per_layer_units"] = raw["per_layer_units"]
    return record


def metrics(record: dict) -> dict:
    if record["trace"]:
        units, values = record["per_layer_units"], record["per_layer"]
    else:
        units, values = END_TO_END_UNITS, record["end_to_end"]
    return {k: {"value": values[k], "unit": u} for k, u in units.items()
            if k not in RECORD_ONLY}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nclab" / "__init__.py").is_file():
        print("no nclab sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, LookupError) as exc:
            print("benchmark failed on %s: %s" % (name, exc), file=sys.stderr)
            return 1
        path = OUT / ("result-%s-seed%d-trace%d.json" % (name, args.seed, args.trace))
        path.write_text(json.dumps(record, indent=1) + "\n")
        err = record["error_rate"]
        print("%s seed %d: %d passes, error_rate %d/%d, correct %s, record %s" % (
            name, args.seed, record["passes"], err["failed"], err["attempted"],
            record["correct"], path.relative_to(ROOT)))
        for key, m in metrics(record).items():
            print("  %-40s %.6g %s" % (key, m["value"], m["unit"]))
        results.append((name, record))

    if len(results) == 1:
        merged = metrics(results[0][1])
    else:
        merged = {
            "%s.%s" % (name, k): v for name, rec in results for k, v in metrics(rec).items()
        }
    print(json.dumps({
        "correct": all(rec["correct"] for _, rec in results),
        "attempted": sum(rec["attempted"] for _, rec in results),
        "failed": sum(rec["failed"] for _, rec in results),
        "metrics": merged,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
