"""Parallel ISS benchmark harness: ``python -m repro bench``.

Measures simulator *throughput* (simulated instructions per host second)
for the paper's kernels under all three execution engines — the ``step()``
reference interpreter, the block-compiling
:class:`~repro.avr.engine.FastEngine` and the superblock
:class:`~repro.avr.trace.TraceEngine` — and records the per-kernel
speedups (fast/reference, trace/reference and trace/fast).  The matrix
(kernel x mode x engine) fans out across worker processes; each worker
owns its own :class:`~repro.kernels.runner.KernelRunner` so entries are
fully independent.

Results append to ``BENCH_iss.json`` (a list of run records, schema
below); the benchmark-throughput test validates the schema and asserts
the recorded speedup stays above :data:`ENGINE_MIN_SPEEDUP`.  The engine
architecture being measured is documented in DESIGN.md §4 "Execution
engines".

Run-record schema (``schema == 1``)::

    {
      "schema": 1,
      "timestamp": "2026-08-05T12:00:00+00:00",
      "label": "full" | "smoke" | <user label>,
      "python": "3.11.x",
      "platform": "Linux-...",
      "jobs": 2,
      "entries": [
        {"name": "opf_mul_mac/ISE/fast", "family": "field",
         "kernel": "opf_mul_mac", "mode": "ISE", "engine": "fast",
         "reps": 400, "instructions": 619, "cycles_per_run": 620,
         "wall_s": 0.1, "ips": 2400000.0},
        ...
      ],
      "speedups": {"opf_mul_mac/ISE": 10.2, ...}
    }

``ips`` is simulated instructions retired per host wall-clock second;
``instructions`` / ``cycles_per_run`` are per-rep and deterministic, so
they double as a cross-engine consistency check.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Sequence

from ..avr.timing import Mode
from ..kernels import (
    KernelRunner,
    LadderKernel,
    OpfConstants,
    generate_modadd,
    generate_modsub,
    generate_opf_mul_comba,
    generate_opf_mul_mac,
)

#: Minimum fast/reference speedup the repository guarantees (and the test
#: suite asserts) on the ISE multiplication kernel.  Measured runs land at
#: ~10x on an otherwise idle host (see BENCH_iss.json); the floor is set
#: well below that so shared-CI timing noise cannot fail a correct build.
ENGINE_MIN_SPEEDUP = 3.0

#: Minimum trace/fast speedup the repository guarantees on the full
#: scalar multiplication (``ladder_xz/ISE``) — the superblock tier's
#: headline number.  Measured runs land at ~3.5x (see BENCH_iss.json);
#: ``bench --check`` enforces this floor on its fresh smoke run, and the
#: ratio is host-load-resistant because both engines share the run's
#: conditions.
TRACE_MIN_SPEEDUP = 2.5

#: Default output file, at the repository root by convention.
DEFAULT_OUTPUT = "BENCH_iss.json"

_GENERATORS = {
    "opf_add": generate_modadd,
    "opf_sub": generate_modsub,
    "opf_mul_comba": generate_opf_mul_comba,
    "opf_mul_mac": generate_opf_mul_mac,
}

# The paper's 160-bit OPF: p = 65356 * 2^144 + 1.
_CONSTANTS = dict(u=65356, k=144)


def _matrix(smoke: bool) -> List[Dict[str, Any]]:
    """The benchmark fan-out: one spec dict per (kernel, mode, engine)."""
    if smoke:
        field = [("opf_mul_mac", Mode.ISE, 60),
                 ("opf_mul_comba", Mode.CA, 40)]
    else:
        field = [("opf_add", Mode.CA, 600), ("opf_add", Mode.FAST, 600),
                 ("opf_sub", Mode.CA, 600), ("opf_sub", Mode.FAST, 600),
                 ("opf_mul_comba", Mode.CA, 250),
                 ("opf_mul_comba", Mode.FAST, 250),
                 ("opf_mul_mac", Mode.ISE, 400)]
    specs: List[Dict[str, Any]] = []
    for kernel, mode, reps in field:
        for engine in ("fast", "trace", "reference"):
            specs.append({
                "family": "field", "kernel": kernel, "mode": mode.value,
                "engine": engine,
                "reps": reps if engine != "reference" else max(2, reps // 10),
            })
    # The full scalar multiplication exercises call/ret, the bit-loop
    # driver and long superblock chains; it is the headline number for
    # the trace tier, so it runs warmed and multi-rep under every engine
    # in both labels (the reference interpreter gets one rep — a single
    # ladder costs seconds there, and the ips of one warmed full ladder
    # is already stable at the millions-of-instructions scale).
    for engine, reps in (("fast", 1 if smoke else 3),
                         ("trace", 1 if smoke else 3),
                         ("reference", 1)):
        specs.append({"family": "curve", "kernel": "ladder_xz",
                      "mode": Mode.ISE.value, "engine": engine,
                      "reps": reps})
    return specs


def _bench_field(spec: Dict[str, Any]) -> Dict[str, Any]:
    constants = OpfConstants(**_CONSTANTS)
    source = _GENERATORS[spec["kernel"]](constants)
    runner = KernelRunner(source, Mode(spec["mode"]), engine=spec["engine"])
    p = constants.p
    # Deterministic operands shared by every engine so ips comparisons
    # measure the engine, not the data.
    a = pow(3, 77, p)
    b = pow(5, 91, p)
    runner.run(a, b)                      # warm-up: compile + decode caches
    core = runner.core
    per_run = core.instructions_retired
    cycles = core.cycles
    reps = spec["reps"]

    # The kernels read A/B in place and write R/T, so operands staged by
    # the warm-up survive every iteration: the hot loop is reset + run,
    # i.e. pure engine throughput rather than harness byte-shuffling.
    def body():
        for _ in range(reps):
            core.reset(pc=0)
            core.run()

    wall = _best_of(3, body)
    return _entry(spec, per_run, cycles, reps, wall)


def _best_of(n: int, body) -> float:
    """Fastest of *n* timed loops — the standard throughput discipline:
    the minimum is the run least disturbed by scheduler noise."""
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        body()
        best = min(best, time.perf_counter() - t0)
    return best


def _bench_ladder(spec: Dict[str, Any]) -> Dict[str, Any]:
    constants = OpfConstants(**_CONSTANTS)
    kernel = LadderKernel(constants, Mode(spec["mode"]),
                          engine=spec["engine"])
    k = pow(7, 123, constants.p) | 1
    base_x = 9
    kernel.run(k, base_x)                 # warm-up
    per_run = kernel.core.instructions_retired
    cycles = kernel.core.cycles
    reps = spec["reps"]
    wall = _best_of(2, lambda: [kernel.run(k, base_x) for _ in range(reps)])
    return _entry(spec, per_run, cycles, reps, wall)


def _entry(spec: Dict[str, Any], per_run: int, cycles: int, reps: int,
           wall: float) -> Dict[str, Any]:
    return {
        "name": f"{spec['kernel']}/{spec['mode']}/{spec['engine']}",
        "family": spec["family"],
        "kernel": spec["kernel"],
        "mode": spec["mode"],
        "engine": spec["engine"],
        "reps": reps,
        "instructions": per_run,
        "cycles_per_run": cycles,
        "wall_s": wall,
        "ips": per_run * reps / wall if wall > 0 else 0.0,
    }


def bench_worker(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Top-level (picklable) worker: run one benchmark spec to an entry."""
    if spec["family"] == "curve":
        return _bench_ladder(spec)
    return _bench_field(spec)


def compute_speedups(entries: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Engine ips ratios per (kernel, mode).

    ``"<kernel>/<mode>"`` is the historical fast/reference ratio;
    ``"<kernel>/<mode>/trace"`` is trace/reference and
    ``"<kernel>/<mode>/trace_vs_fast"`` trace/fast — the latter is the
    number :data:`TRACE_MIN_SPEEDUP` gates on ``ladder_xz/ISE``.
    """
    ips = {e["name"]: e["ips"] for e in entries}
    speedups: Dict[str, float] = {}
    for entry in entries:
        key = f"{entry['kernel']}/{entry['mode']}"
        ref = ips.get(f"{key}/reference")
        if entry["engine"] == "fast":
            if ref:
                speedups[key] = entry["ips"] / ref
        elif entry["engine"] == "trace":
            if ref:
                speedups[f"{key}/trace"] = entry["ips"] / ref
            fast = ips.get(f"{key}/fast")
            if fast:
                speedups[f"{key}/trace_vs_fast"] = entry["ips"] / fast
    return speedups


def run_bench(smoke: bool = False, jobs: Optional[int] = None,
              label: Optional[str] = None) -> Dict[str, Any]:
    """Execute the benchmark matrix in parallel; return one run record."""
    specs = _matrix(smoke)
    if jobs is None:
        jobs = min(len(specs), os.cpu_count() or 1)
    jobs = max(1, jobs)
    if jobs == 1:
        entries = [bench_worker(s) for s in specs]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            entries = list(pool.map(bench_worker, specs))
    record = {
        "schema": 1,
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "label": label or ("smoke" if smoke else "full"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "jobs": jobs,
        "entries": entries,
        "speedups": compute_speedups(entries),
    }
    validate_run_record(record)
    return record


_ENTRY_FIELDS = {
    "name": str, "family": str, "kernel": str, "mode": str, "engine": str,
    "reps": int, "instructions": int, "cycles_per_run": int,
    "wall_s": (int, float), "ips": (int, float),
}


#: Execution paths a ``family: "serve"`` entry may carry (the serving
#: benchmark of :mod:`repro.serve.loadgen`): the one-at-a-time baseline,
#: the fixed-base comb path, the served pipeline (``served``; records
#: from before inline execution carry ``pool<N>`` rows instead), the
#: same with request tracing enabled (the tracing-overhead row), N
#: serving processes of :mod:`repro.serve.shard` (the scale-out rows),
#: the named-key vs inline-key twins of the tenancy benchmark
#: (``inline_shard<N>`` / ``named_shard<N>``), or the quota-shed leg
#: (``quota``: a deliberately over-budget tenant stream).
_SERVE_ENGINE = re.compile(
    r"direct|fixedbase|(served|pool[0-9]+)(_traced)?|shard[0-9]+"
    r"|inline_shard[0-9]+|named_shard[0-9]+|quota")


def validate_entry(entry: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless *entry* matches the schema-1 layout.

    Two entry families share the layout: ISS throughput entries
    (``family`` "field"/"curve", engine fast/reference, mode an
    :class:`~repro.avr.timing.Mode`) and serving entries (``family``
    "serve", engine direct/fixedbase/served/..., mode a curve key, ``ips``
    measured in operations per second).
    """
    if not isinstance(entry, dict):
        raise ValueError(f"entry must be a dict, got {type(entry).__name__}")
    for field, types in _ENTRY_FIELDS.items():
        if field not in entry:
            raise ValueError(f"entry missing field {field!r}")
        if not isinstance(entry[field], types) or isinstance(
                entry[field], bool):
            raise ValueError(f"entry field {field!r} has wrong type")
    if entry["family"] == "serve":
        from ..serve.protocol import CURVES  # deferred: keeps bench light

        if not _SERVE_ENGINE.fullmatch(entry["engine"]):
            raise ValueError(f"unknown serve engine {entry['engine']!r}")
        if entry["mode"] not in CURVES:
            raise ValueError(f"unknown serve curve {entry['mode']!r}")
        if entry["cycles_per_run"] != 0:
            raise ValueError("serve entries carry no cycle count")
    else:
        if entry["engine"] not in ("fast", "trace", "reference"):
            raise ValueError(f"unknown engine {entry['engine']!r}")
        if entry["mode"] not in {m.value for m in Mode}:
            raise ValueError(f"unknown mode {entry['mode']!r}")
    if entry["name"] != f"{entry['kernel']}/{entry['mode']}/{entry['engine']}":
        raise ValueError(f"entry name {entry['name']!r} does not match parts")
    if entry["reps"] < 1 or entry["instructions"] < 1 or entry["ips"] < 0:
        raise ValueError("entry counters out of range")


def validate_run_record(record: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless *record* is a valid schema-1 run."""
    if not isinstance(record, dict):
        raise ValueError("run record must be a dict")
    if record.get("schema") != 1:
        raise ValueError(f"unsupported schema {record.get('schema')!r}")
    for field in ("timestamp", "label", "python", "platform"):
        if not isinstance(record.get(field), str):
            raise ValueError(f"record field {field!r} must be a string")
    if not isinstance(record.get("jobs"), int) or record["jobs"] < 1:
        raise ValueError("record field 'jobs' must be a positive int")
    entries = record.get("entries")
    if not isinstance(entries, list) or not entries:
        raise ValueError("record must carry a non-empty entries list")
    for entry in entries:
        validate_entry(entry)
    speedups = record.get("speedups")
    if not isinstance(speedups, dict):
        raise ValueError("record must carry a speedups dict")
    for key, value in speedups.items():
        if not isinstance(key, str) or not isinstance(value, (int, float)):
            raise ValueError("speedups must map str -> number")


def append_record(record: Dict[str, Any], path: str) -> None:
    """Append *record* to the JSON run list at *path* (atomic rewrite)."""
    validate_run_record(record)
    records: List[Dict[str, Any]] = []
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            records = json.load(fh)
        if not isinstance(records, list):
            raise ValueError(f"{path} does not hold a JSON run list")
    records.append(record)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def measure_speedup(record: Dict[str, Any],
                    key: str = "opf_mul_mac/ISE") -> float:
    """The recorded fast/reference speedup for *key* (ValueError if absent)."""
    try:
        return float(record["speedups"][key])
    except KeyError:
        raise ValueError(f"run record has no speedup entry for {key!r}")


def render(record: Dict[str, Any]) -> str:
    lines = [f"ISS throughput ({record['label']}, jobs={record['jobs']}, "
             f"python {record['python']})", ""]
    lines.append(f"{'benchmark':<34}{'reps':>6}{'instr/run':>11}"
                 f"{'wall s':>9}{'Mips':>8}")
    lines.append("-" * 68)
    for entry in record["entries"]:
        lines.append(f"{entry['name']:<34}{entry['reps']:>6}"
                     f"{entry['instructions']:>11}"
                     f"{entry['wall_s']:>9.2f}"
                     f"{entry['ips'] / 1e6:>8.2f}")
    if record["speedups"]:
        lines.append("")
        lines.append("engine speedups (bare key: fast/reference; /trace: "
                     "trace/reference; /trace_vs_fast: trace/fast):")
        for key in sorted(record["speedups"]):
            lines.append(f"  {key:<40}{record['speedups'][key]:>6.1f}x")
    return "\n".join(lines)


#: Throughput-regression tolerance for ``--check``: a fresh smoke entry
#: may fall this far below the last committed record before the check
#: fails.  Generous on purpose — shared hosts jitter; a real engine
#: regression (a de-optimised block compiler) loses far more than 30%.
CHECK_THRESHOLD = 0.30


def compare_records(fresh: Dict[str, Any], baseline: Dict[str, Any],
                    threshold: float = CHECK_THRESHOLD
                    ) -> List[Dict[str, Any]]:
    """Per-entry throughput comparison of two run records.

    Returns one row per benchmark name present in *both* records:
    ``{"name", "baseline_ips", "fresh_ips", "ratio", "regressed"}``
    where ``regressed`` marks a fresh throughput below
    ``(1 - threshold) * baseline``.
    """
    base_ips = {e["name"]: e["ips"] for e in baseline["entries"]}
    rows: List[Dict[str, Any]] = []
    for entry in fresh["entries"]:
        old = base_ips.get(entry["name"])
        if not old:
            continue
        ratio = entry["ips"] / old
        rows.append({
            "name": entry["name"],
            "baseline_ips": old,
            "fresh_ips": entry["ips"],
            "ratio": ratio,
            "regressed": ratio < 1.0 - threshold,
        })
    return rows


def check_against_baseline(path: str = DEFAULT_OUTPUT,
                           jobs: Optional[int] = None,
                           threshold: float = CHECK_THRESHOLD) -> int:
    """Run a fresh smoke benchmark and compare it to the last record at
    *path*; returns a shell exit code (1 on any >threshold regression).

    Nothing is appended to the record file — the check is read-only.
    """
    if not os.path.exists(path):
        print(f"bench --check: no baseline at {path}; nothing to compare")
        return 1
    with open(path, "r", encoding="utf-8") as fh:
        records = json.load(fh)
    if not isinstance(records, list) or not records:
        print(f"bench --check: {path} holds no run records")
        return 1
    baseline = records[-1]
    validate_run_record(baseline)
    fresh = run_bench(smoke=True, jobs=jobs, label="check")
    rows = compare_records(fresh, baseline, threshold)
    if not rows:
        print("bench --check: no overlapping benchmark names with the "
              f"baseline ({baseline['label']} @ {baseline['timestamp']})")
        return 1
    print(f"bench --check vs {baseline['label']} run of "
          f"{baseline['timestamp']} (tolerance -{threshold:.0%})\n")
    print(f"{'benchmark':<34}{'baseline Mips':>14}{'fresh Mips':>12}"
          f"{'ratio':>8}")
    print("-" * 68)
    failed = False
    for row in rows:
        flag = "  REGRESSED" if row["regressed"] else ""
        failed = failed or row["regressed"]
        print(f"{row['name']:<34}{row['baseline_ips'] / 1e6:>14.2f}"
              f"{row['fresh_ips'] / 1e6:>12.2f}{row['ratio']:>8.2f}{flag}")
    # The superblock tier carries its own absolute floor: the fresh smoke
    # run's trace/fast ratio on the full ladder must hold the guaranteed
    # speedup (a ratio of two same-run measurements, so host load cancels
    # out and the generous throughput tolerance above does not apply).
    trace_key = "ladder_xz/ISE/trace_vs_fast"
    trace_ratio = fresh["speedups"].get(trace_key)
    if trace_ratio is not None:
        ok = trace_ratio >= TRACE_MIN_SPEEDUP
        failed = failed or not ok
        print(f"\n{trace_key}: {trace_ratio:.2f}x "
              f"(floor {TRACE_MIN_SPEEDUP}x)"
              + ("" if ok else "  REGRESSED"))
    print()
    print("FAIL: throughput regressed beyond tolerance" if failed
          else "OK: throughput within tolerance of the last record")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Benchmark ISS throughput (fast engine vs reference) "
                    "across kernels, modes and engines in parallel.",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="~30 s subset (2 kernels, reduced reps)")
    parser.add_argument("--check", action="store_true",
                        help="run a fresh smoke benchmark and compare it "
                             "against the last committed record; exit "
                             "non-zero on a >30%% throughput regression "
                             "(appends nothing)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: min(specs, cpus))")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help=f"run-record JSON file (default {DEFAULT_OUTPUT};"
                             " 'none' disables writing; with --check this "
                             "is the baseline to compare against)")
    parser.add_argument("--label", default=None,
                        help="free-form label stored in the run record")
    args = parser.parse_args(argv)

    if args.check:
        path = DEFAULT_OUTPUT if args.output == "none" else args.output
        status = check_against_baseline(path, jobs=args.jobs)
        # The serving benchmark gates through the same command: when a
        # BENCH_serve.json baseline is committed, a fresh smoke serving
        # run must stay within its (looser) tolerance too.
        from ..serve.loadgen import check_serve_against_baseline
        print()
        return status or check_serve_against_baseline()
    record = run_bench(smoke=args.smoke, jobs=args.jobs, label=args.label)
    print(render(record))
    if args.output != "none":
        append_record(record, args.output)
        print(f"\nappended run record to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
