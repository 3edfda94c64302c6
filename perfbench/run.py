"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 1
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --record                # rewrite digests.json

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same workload untraced and then traced through
``repro.obs.use_tracer``/``use_metrics``, half the seconds each, and
reports the per-layer metrics plus the tracing overhead (traced over
untraced ``wall_s``).  A per-layer metric whose layer does not run on a
workload reads 0.

Host time is scaled to a reference speed.  On a small shared host the
CPU's speed drifts by a third for seconds to minutes at a time, which
no number of repeats inside one run averages out.  So a fixed reference
loop is timed beside every timed part of the work (before and after
it, on one CPU or on each, or on a thread while the work runs in other
processes), and
``wall_s`` sums, over the parts of one unit of work, the median over
the run of ``seconds * REFERENCE_LOOP_S / reference seconds``:
the unit's seconds on the reference box at its undisturbed speed.
``jobs_per_s`` and ``refs_per_s`` divide a unit's jobs and trace
references by it.  ``setup_s`` is the median over the run's set-ups
of their seconds, scaled the same way.

Every run prints two JSON lines on stdout: the full record (provenance,
settings, sample counts, per-workload details) and, last, the result
line ``{"correct", "attempted", "failed", "metrics"}``.  Every simulated
result is checked against ``digests.json`` (job content hash -> SHA-256
of ``RunResult.to_dict()``); a mismatch counts as a failed operation,
makes ``correct`` false and the exit code 1.

The seed only chooses among inputs the digest table covers (the
sweep's job order, the service's warm order and cold-job sample), so
every seed is checkable; the traces are fixed, since a trace's content
sets how long its replay takes.  ``--record`` regenerates the table from the
current tree; run it only on a commit whose results are trusted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")

WORKLOAD_NAMES = ("campaign-cold", "sweep", "service-mix", "trace-stream")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _source_digest() -> str:
    """SHA-256 over every source file, so a record names its code even
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _commit():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(args) -> dict:
    import numpy

    from repro.version import version_info

    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "version_info": version_info(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _remove_work(work: str) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)
    except OSError:  # another run still uses it
        pass


def peak_rss_mb() -> float:
    """Largest max-RSS of this process and its waited-for descendants."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(workload, seconds: float) -> list:
    """Run whole units of work while the next one still fits in
    ``seconds``; at least one."""
    from workloads import ReferenceSampler, reference_every_cpu, reference_loop

    loop = (reference_loop if workload.reference == "adjacent"
            else reference_every_cpu)
    units = []
    start = time.perf_counter()
    while True:
        if workload.reference == "sampled":
            with ReferenceSampler() as sampler:
                unit = workload.run_unit(len(units))
            reference = statistics.median(sampler.times)
        else:
            before = loop()
            unit = workload.run_unit(len(units))
            reference = (before + loop()) / 2
        if not unit.parts:
            unit.parts = {"unit": (unit.wall, reference)}
        units.append(unit)
        elapsed = time.perf_counter() - start
        if (len(units) >= workload.max_units
                or elapsed + unit.wall > seconds):
            return units


def unit_wall(units) -> float:
    """Seconds one unit's work takes at the reference host speed.

    Each timed part's seconds are scaled by the reference loop timed
    beside it (``REFERENCE_LOOP_S`` over its seconds then), and the
    median over the run's units of each part is summed.  On the
    reference box, whose speed drifts by a third as neighbours come and
    go, this holds within a few percent where raw seconds do not.
    """
    from workloads import REFERENCE_LOOP_S

    scaled: dict = {}
    for unit in units:
        for key, (seconds, reference) in unit.parts.items():
            scaled.setdefault(key, []).append(
                seconds * REFERENCE_LOOP_S / reference)
    return sum(statistics.median(v) for v in scaled.values())


def end_to_end(units, setups) -> dict:
    """``setups`` holds (seconds, reference seconds) per set-up."""
    from workloads import REFERENCE_LOOP_S

    median = statistics.median
    wall = unit_wall(units)
    return {
        "setup_s": median(seconds * REFERENCE_LOOP_S / reference
                          for seconds, reference in setups),
        "wall_s": wall,
        "jobs_per_s": median(u.jobs for u in units) / wall,
        "refs_per_s": median(u.refs for u in units) / wall,
        "peak_rss_mb": peak_rss_mb(),
    }


def run_one(name: str, args) -> int:
    import layers
    import workloads
    from digests import DigestTable

    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    table = DigestTable.load(DIGESTS)
    work = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = workloads.Context(src=SRC, work=work, seed=args.seed,
                            digests=table)
    workload = workloads.WORKLOADS[name](ctx)
    details: dict = {}
    try:
        if not args.trace:
            setups = []
            for _ in range(workload.setup_repeats):
                before = workloads.reference_every_cpu()
                t0 = time.perf_counter()
                workload.setup()
                seconds = time.perf_counter() - t0
                setups.append(
                    (seconds, (before + workloads.reference_every_cpu()) / 2))
            units = measure(workload, args.seconds)
            workload.finish()
            values = end_to_end(units, setups)
            declared = spec["end_to_end"]
            details["setup_times_s"] = [seconds for seconds, _ in setups]
            details["raw_unit_wall_s"] = [u.wall for u in units]
            details["reference_loop_s"] = statistics.median(
                ref for u in units for _, ref in u.parts.values())
        else:
            from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer

            workload.setup()
            base_units = measure(workload, args.seconds / 2)
            tracer, registry = Tracer(), MetricsRegistry()
            with use_tracer(tracer), use_metrics(registry):
                workload.setup()
                t0 = time.perf_counter()
                units = measure(workload, args.seconds / 2)
                window = (t0, time.perf_counter())
            workload.finish()
            base_wall = unit_wall(base_units)
            traced_wall = unit_wall(units)
            values = layers.per_layer(
                tracer.spans, workload.extra_spans(), window,
                workload.refs_by_hash, registry, workload.layer_facts(units),
            )
            values["obs.overhead"] = traced_wall / base_wall
            declared = spec["per_layer"]
            details["tracing"] = {
                "overhead": f"traced wall_s {traced_wall:.4f} s / untraced "
                            f"wall_s {base_wall:.4f} s "
                            f"= {traced_wall / base_wall:.4f}",
                "coverage": layers.coverage_note(name, values),
            }
            units = base_units + units
    finally:
        workload.close()
        _remove_work(work)

    # A per-layer metric whose layer did not run reads 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in declared}
    attempted = sum(u.jobs for u in units)
    failed = sum(u.failed for u in units)
    correct = failed == 0 and not table.mismatches
    details.update(workload.details(units))
    if table.mismatches:
        details["digest_mismatches"] = table.mismatches[:20]
    record = {
        "benchmark": "perfbench",
        "workload": name,
        "why": next(w["why"] for w in spec["workloads"]
                    if w["name"] == name),
        "provenance": provenance(args),
        "units": len(units),
        "details": details,
    }
    print(json.dumps(record, sort_keys=True, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; one table; nonzero on any
    failure or digest mismatch."""
    code = 0
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            code = 1
        if not lines:
            merged["correct"] = False
            print(f"{name}: no result (exit {proc.returncode})")
            continue
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for key, metric in result["metrics"].items():
            print(f"  {key:32s} {metric['value']:>16.6g} {metric['unit']}")
            merged["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(merged))
    return code


def record_digests(args) -> int:
    import workloads
    from digests import DigestTable

    table = DigestTable(recording=True)
    for name in WORKLOAD_NAMES:
        work = os.path.join(WORK_ROOT, f"record-{name}-{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        ctx = workloads.Context(src=SRC, work=work, seed=args.seed,
                                digests=table)
        workload = workloads.WORKLOADS[name](ctx)
        before = len(table.table)
        try:
            workload.record()
        finally:
            workload.close()
            _remove_work(work)
        print(f"{name}: {len(table.table) - before} digests", file=sys.stderr)
    table.save(DIGESTS)
    print(f"wrote {len(table.table)} digests to {DIGESTS}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure whole units of work that fit in this "
                             "many seconds (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="regenerate digests.json from this tree")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        _fail(f"no program source at {SRC}; run from the root of a "
              "checkout of the repository")
    sys.path.insert(0, SRC)
    if args.record:
        return record_digests(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args)


if __name__ == "__main__":
    sys.exit(main())
