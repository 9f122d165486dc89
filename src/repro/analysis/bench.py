"""One in-tree benchmark harness: ``python -m repro bench``.

Two row families share one run-record schema, one floor table
(:data:`FLOORS`), one floor checker (:func:`check_floors`), one renderer
and one baseline comparison:

* **ISS throughput** (the default; ``BENCH_iss.json``): simulated
  instructions per host second for the paper's kernels on all three
  execution tiers — the ``step()`` reference interpreter, the superblock
  :class:`~repro.avr.trace.TraceEngine` that ``AvrCore.run()`` dispatches
  to by default, and the block-compiling
  :class:`~repro.avr.engine.FastEngine` rung beneath it, which the
  ``fast`` rows drive directly through ``AvrCore.fast_engine`` — and the
  per-kernel speedups (fast/reference, trace/reference and trace/fast).
* **serving** (``--serve``; ``BENCH_serve.json``): the execution paths,
  scale-out and tenancy legs of :mod:`repro.serve.loadgen`, whose
  ``ips`` is operations per second.

Rows run one at a time in this process, so a row's throughput never
depends on which other row shares the host.  Rows come in groups; a
group whose ratios feed a floor runs :data:`ROUNDS` rounds with its
legs in forward order on even rounds and reversed on odd ones, so each
ratio of two legs sees both orders.  The record keeps each leg's
median-throughput round and each ratio's median over the rounds.

Every fresh record — full, smoke or ``--check`` — goes through
:func:`check_floors`, and a floor whose key is missing fails.  Only full
runs append to the record file; smoke runs and ``--check`` write
nothing.  The engine architecture being measured is documented in
DESIGN.md §4 "Execution engines", the serving stack in §8.

Run-record schema (``schema == 1``)::

    {
      "schema": 1,
      "timestamp": "2026-08-05T12:00:00+00:00",
      "label": "full" | "smoke" | "serve" | "serve-smoke" | <user label>,
      "python": "3.11.x",
      "platform": "Linux-...",
      "jobs": 1,
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
they double as a cross-engine consistency check.  ``jobs`` is always 1
now; records from the parallel harness carry their worker count.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import re
import statistics
import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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


# -- the floor table ---------------------------------------------------------


@dataclass(frozen=True)
class Floor:
    """A guaranteed lower bound on one ``speedups`` value of a record.

    The row applies when ``min_cpus <= os.cpu_count() <= max_cpus``
    (no upper bound when ``max_cpus`` is None).
    """

    family: str
    key: str
    floor: float
    min_cpus: int = 1
    max_cpus: Optional[int] = None

    def applies(self, cpus: int) -> bool:
        return self.min_cpus <= cpus and (
            self.max_cpus is None or cpus <= self.max_cpus)


#: Every floor the repository guarantees, and the only place their
#: values live.  Each is a ratio of two legs of the same run (or, for the
#: quota leg, a count), so host speed cancels out; every value sits well
#: below what an idle host measures, so timing noise cannot fail a
#: correct build.
FLOORS: Tuple[Floor, ...] = (
    # fast/reference on the ISE multiplication kernel (measured ~10x).
    Floor("iss", "opf_mul_mac/ISE", 3.0),
    # trace/fast on the full scalar multiplication: the superblock
    # tier's headline number (measured ~3.5-5x).
    Floor("iss", "ladder_xz/ISE/trace_vs_fast", 2.5),
    # Comb tables vs variable-base NAF, one keygen at a time.
    Floor("serve", "keygen/secp160r1/fixedbase:direct", 1.5),
    # The pipelined in-process server vs one request at a time: carried
    # by the fixed-base win, not parallelism, so it holds on one core.
    Floor("serve", "keygen/secp160r1/served:direct", 2.0),
    # The tracing hot-path guard: traced vs untraced served throughput.
    Floor("serve", "keygen/secp160r1/served_traced:served", 0.70),
    # Scale-out where there are cores to scale onto; on one core, two
    # processes cannot outrun one and the row only guards against the
    # fan-out collapsing throughput.
    Floor("serve", "mixed/secp160r1/shard2:shard1", 1.5, min_cpus=2),
    Floor("serve", "mixed/secp160r1/shard2:shard1", 0.6, max_cpus=1),
    # Named-key vs inline-key signing at the same process count: auth,
    # token bucket, generation pin and key resolution, no extra curve
    # arithmetic.
    Floor("serve", "ecdsa/secp160r1/named_shard1:inline_shard1", 0.6),
    Floor("serve", "ecdsa/secp160r1/named_shard2:inline_shard2", 0.6),
    # A stream several times over its tenant's budget must get shed with
    # QuotaExceeded: a bucket that admits everything is a bug.
    Floor("serve", "named/quota_shed_fraction", 0.2),
)


#: The fast/reference floor on the ISE multiplication kernel.
ENGINE_MIN_SPEEDUP = next(f.floor for f in FLOORS
                          if f.key == "opf_mul_mac/ISE")

#: Rounds a floor-feeding row group runs; its floors read the median.
ROUNDS = 5

#: Record file per family, at the repository root by convention.
OUTPUTS = {"iss": "BENCH_iss.json", "serve": "BENCH_serve.json"}
DEFAULT_OUTPUT = OUTPUTS["iss"]

#: Throughput-regression tolerance of ``--check``: a fresh smoke entry
#: may fall this far below the last committed record before the check
#: fails.  Generous on purpose — shared hosts jitter; a real engine
#: regression (a de-optimised block compiler) loses far more than 30%.
CHECK_THRESHOLD = 0.30

#: Per-family ``--check`` tolerance.  Serve throughput wobbles more than
#: the ISS rows (process startup, client scheduling), so its tolerance
#: is looser.
_THRESHOLDS = {"iss": CHECK_THRESHOLD, "serve": 0.50}

#: How each family's ``ips`` is displayed: (unit, divisor).
_UNITS = {"iss": ("Mips", 1e6), "serve": ("ops/s", 1.0)}


def _family(record: Dict[str, Any]) -> str:
    """``"serve"`` for a serving record, else ``"iss"``."""
    return ("serve" if record["entries"][0]["family"] == "serve"
            else "iss")


def check_floors(record: Dict[str, Any],
                 cpus: Optional[int] = None) -> List[Dict[str, Any]]:
    """One verdict per floor of the record's family that applies on
    *cpus* (default ``os.cpu_count()``):
    ``{"key", "floor", "reading", "ok"}``.  A missing key reads ``None``
    and fails."""
    if cpus is None:
        cpus = os.cpu_count() or 1
    family = _family(record)
    verdicts = []
    for row in FLOORS:
        if row.family != family or not row.applies(cpus):
            continue
        reading = record["speedups"].get(row.key)
        verdicts.append({"key": row.key, "floor": row.floor,
                         "reading": reading,
                         "ok": reading is not None
                         and reading >= row.floor})
    return verdicts


def _floors_hold(record: Dict[str, Any]) -> bool:
    return all(v["ok"] for v in check_floors(record))


def _verdict_lines(record: Dict[str, Any]) -> List[str]:
    lines = [f"floors ({os.cpu_count() or 1} cpus):"]
    for v in check_floors(record):
        if v["reading"] is None:
            lines.append(f"  {v['key']:<44}missing        FAIL")
            continue
        op, verdict = (">=", "OK") if v["ok"] else ("<", "FAIL")
        lines.append(f"  {v['key']:<44}{v['reading']:>6.2f}x {op} "
                     f"{v['floor']:.2f}x  {verdict}")
    return lines


# -- measuring ---------------------------------------------------------------

#: A row group: thunks that each measure one leg to an entry, and how
#: many rounds to run them.
Group = Tuple[Sequence[Callable[[], Dict[str, Any]]], int]


def measure(groups: Sequence[Group],
            speedups_of: Callable[[Sequence[Dict[str, Any]]],
                                  Dict[str, float]]
            ) -> Tuple[List[Dict[str, Any]], Dict[str, float]]:
    """Run *groups* one leg at a time; return ``(entries, speedups)``.

    Round *r* of a group runs its legs forward when *r* is even and
    reversed when odd.  Each leg contributes its median-``ips`` round;
    each ratio *speedups_of* derives from a group's legs reads its
    median over the rounds, and ratios across groups read the median
    entries.
    """
    entries: List[Dict[str, Any]] = []
    readings: Dict[str, List[float]] = {}
    for legs, rounds in groups:
        runs: List[List[Dict[str, Any]]] = [[] for _ in legs]
        for r in range(rounds):
            order = range(len(legs)) if r % 2 == 0 \
                else reversed(range(len(legs)))
            for i in order:
                runs[i].append(legs[i]())
            latest = [leg_runs[-1] for leg_runs in runs]
            for key, value in speedups_of(latest).items():
                readings.setdefault(key, []).append(value)
        for leg_runs in runs:
            ranked = sorted(leg_runs, key=lambda e: e["ips"])
            entries.append(ranked[(len(ranked) - 1) // 2])
    speedups = speedups_of(entries)
    speedups.update({key: statistics.median(values)
                     for key, values in readings.items()})
    return entries, speedups


def make_record(entries: List[Dict[str, Any]], speedups: Dict[str, float],
                label: str) -> Dict[str, Any]:
    """A validated schema-1 run record."""
    record = {
        "schema": 1,
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "label": label,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "jobs": 1,
        "entries": entries,
        "speedups": speedups,
    }
    validate_run_record(record)
    return record


# -- the ISS rows ------------------------------------------------------------

_GENERATORS = {
    "opf_add": generate_modadd,
    "opf_sub": generate_modsub,
    "opf_mul_comba": generate_opf_mul_comba,
    "opf_mul_mac": generate_opf_mul_mac,
}

# The paper's 160-bit OPF: p = 65356 * 2^144 + 1.
_CONSTANTS = dict(u=65356, k=144)

#: Reps of the floor-feeding ISS rows, the same in smoke and full runs:
#: on a 2-vCPU host each of these rows (all its timed loops) lasts at
#: least 0.5 s.  The ladder's reference row feeds no floor and runs once.
_MUL_MAC_REPS = 480
_LADDER_REPS = {"fast": 1, "trace": 2}


def _groups(smoke: bool) -> List[Tuple[List[Dict[str, Any]], int]]:
    """The ISS row groups: ``(specs, rounds)``, one spec per
    (kernel, mode, engine) row."""

    def field(kernel: str, mode: Mode, reps: int) -> List[Dict[str, Any]]:
        return [{"family": "field", "kernel": kernel, "mode": mode.value,
                 "engine": engine,
                 "reps": reps if engine != "reference"
                 else max(2, reps // 10)}
                for engine in ("fast", "trace", "reference")]

    def ladder(engine: str, reps: int) -> Dict[str, Any]:
        return {"family": "curve", "kernel": "ladder_xz",
                "mode": Mode.ISE.value, "engine": engine, "reps": reps}

    if smoke:
        others = [("opf_mul_comba", Mode.CA, 40)]
    else:
        others = [("opf_add", Mode.CA, 600), ("opf_add", Mode.FAST, 600),
                  ("opf_sub", Mode.CA, 600), ("opf_sub", Mode.FAST, 600),
                  ("opf_mul_comba", Mode.CA, 250),
                  ("opf_mul_comba", Mode.FAST, 250)]
    groups = [(field("opf_mul_mac", Mode.ISE, _MUL_MAC_REPS), ROUNDS)]
    groups += [(field(kernel, mode, reps), 1)
               for kernel, mode, reps in others]
    # The full scalar multiplication exercises call/ret, the bit-loop
    # driver and long superblock chains: the headline number for the
    # trace tier.  The reference interpreter gets one rep, timed once —
    # a single ladder costs seconds there, and the ips of one full ladder
    # is already stable at the millions-of-instructions scale.
    groups.append(([ladder(engine, reps)
                    for engine, reps in _LADDER_REPS.items()], ROUNDS))
    groups.append(([ladder("reference", 1)], 1))
    return groups


def _engine(spec: Dict[str, Any]) -> str:
    """The ``AvrCore(engine=...)`` value a row's kernel is built with:
    ``fast`` rows build a default core and drive its basic-block engine."""
    return "reference" if spec["engine"] == "reference" else "trace"


def _run_fn(spec: Dict[str, Any], core):
    """What a row times: the core's basic-block engine or ``run()``."""
    return core.fast_engine.run if spec["engine"] == "fast" else core.run


def _bench_field(spec: Dict[str, Any]) -> Dict[str, Any]:
    constants = OpfConstants(**_CONSTANTS)
    source = _GENERATORS[spec["kernel"]](constants)
    runner = KernelRunner(source, Mode(spec["mode"]), engine=_engine(spec))
    p = constants.p
    # Deterministic operands shared by every engine so ips comparisons
    # measure the engine, not the data.
    a = pow(3, 77, p)
    b = pow(5, 91, p)
    core = runner.core
    run = _run_fn(spec, core)
    runner.stage(a, b)
    run()                                 # warm-up: compile + decode caches
    per_run = core.instructions_retired
    cycles = core.cycles
    reps = spec["reps"]

    # The kernels read A/B in place and write R/T, so operands staged by
    # the warm-up survive every iteration: the hot loop is reset + run,
    # i.e. pure engine throughput rather than harness byte-shuffling.
    def body():
        for _ in range(reps):
            core.reset(pc=0)
            run()

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
                          engine=_engine(spec))
    k = pow(7, 123, constants.p) | 1
    base_x = 9
    run = _run_fn(spec, kernel.core)

    reps = spec["reps"]

    def loop():
        for _ in range(reps):
            kernel.load_operands(k, base_x)   # resets the core's tallies
            run()

    if spec["engine"] == "reference":
        # The interpreter compiles nothing, and its decode cache fills in
        # the first few thousand of a ladder's millions of instructions:
        # one timed loop, no warm-up (a full ladder costs seconds there).
        wall = _best_of(1, loop)
    else:
        loop()                            # warm-up: compile + decode caches
        wall = _best_of(2, loop)
    return _entry(spec, kernel.core.instructions_retired, kernel.core.cycles,
                  reps, wall)


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
    """Measure one ISS row spec to an entry."""
    if spec["family"] == "curve":
        return _bench_ladder(spec)
    return _bench_field(spec)


def compute_speedups(entries: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Engine ips ratios per (kernel, mode).

    ``"<kernel>/<mode>"`` is the historical fast/reference ratio;
    ``"<kernel>/<mode>/trace"`` is trace/reference and
    ``"<kernel>/<mode>/trace_vs_fast"`` trace/fast — the latter is the
    number a :data:`FLOORS` row gates on ``ladder_xz/ISE``.
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


def run_bench(smoke: bool = False,
              label: Optional[str] = None) -> Dict[str, Any]:
    """Measure the ISS rows one at a time; return one run record."""
    groups = [([partial(bench_worker, spec) for spec in specs], rounds)
              for specs, rounds in _groups(smoke)]
    entries, speedups = measure(groups, compute_speedups)
    return make_record(entries, speedups,
                       label or ("smoke" if smoke else "full"))


def _fresh_record(family: str, smoke: bool,
                  label: Optional[str] = None) -> Dict[str, Any]:
    """Run one family's benchmark to a record."""
    if family == "serve":
        from ..serve import loadgen  # deferred: keeps the ISS side light

        return loadgen.run_bench_serve(smoke=smoke, label=label)
    return run_bench(smoke=smoke, label=label)


# -- the record schema -------------------------------------------------------

_ENTRY_FIELDS = {
    "name": str, "family": str, "kernel": str, "mode": str, "engine": str,
    "reps": int, "instructions": int, "cycles_per_run": int,
    "wall_s": (int, float), "ips": (int, float),
}


#: Execution paths a ``family: "serve"`` entry may carry (the serving
#: legs of :mod:`repro.serve.loadgen`): the one-at-a-time baseline,
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
    (``family`` "field"/"curve", engine fast/trace/reference, mode an
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
    """The rows, the speedups and the floor verdicts of one record."""
    family = _family(record)
    unit, scale = _UNITS[family]
    title = "ISS throughput" if family == "iss" else "serving throughput"
    lines = [f"{title} ({record['label']}, python {record['python']})", ""]
    lines.append(f"{'row':<40}{'reps':>6}{'wall s':>9}{unit:>10}")
    lines.append("-" * 65)
    for entry in record["entries"]:
        lines.append(f"{entry['name']:<40}{entry['reps']:>6}"
                     f"{entry['wall_s']:>9.2f}"
                     f"{entry['ips'] / scale:>10.2f}")
    lines.append("")
    lines.append("speedups (ISS: bare key fast/reference, /trace "
                 "trace/reference, /trace_vs_fast trace/fast; serve: "
                 "a:b is leg a over leg b):")
    for key in sorted(record["speedups"]):
        lines.append(f"  {key:<44}{record['speedups'][key]:>6.2f}x")
    lines.append("")
    lines.extend(_verdict_lines(record))
    return "\n".join(lines)


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


def check_against_baseline(path: str = DEFAULT_OUTPUT, family: str = "iss",
                           threshold: Optional[float] = None) -> int:
    """Run a fresh smoke benchmark of *family*, compare it to the last
    record at *path* and check its floors; returns a shell exit code (1
    on any >threshold regression or failed floor).

    Nothing is appended to the record file — the check is read-only.
    """
    if threshold is None:
        threshold = _THRESHOLDS[family]
    tag = f"bench --check ({family})"
    if not os.path.exists(path):
        print(f"{tag}: no baseline at {path}; nothing to compare")
        return 1
    with open(path, "r", encoding="utf-8") as fh:
        records = json.load(fh)
    if not isinstance(records, list) or not records:
        print(f"{tag}: {path} holds no run records")
        return 1
    baseline = records[-1]
    validate_run_record(baseline)
    fresh = _fresh_record(family, smoke=True, label="check")
    rows = compare_records(fresh, baseline, threshold)
    if not rows:
        print(f"{tag}: no overlapping benchmark names with the baseline "
              f"({baseline['label']} @ {baseline['timestamp']})")
        return 1
    unit, scale = _UNITS[family]
    print(f"{tag} vs {baseline['label']} run of {baseline['timestamp']} "
          f"(tolerance -{threshold:.0%})\n")
    print(f"{'row':<40}{'baseline ' + unit:>15}{'fresh ' + unit:>13}"
          f"{'ratio':>8}")
    print("-" * 76)
    regressed = False
    for row in rows:
        flag = "  REGRESSED" if row["regressed"] else ""
        regressed = regressed or row["regressed"]
        print(f"{row['name']:<40}{row['baseline_ips'] / scale:>15.2f}"
              f"{row['fresh_ips'] / scale:>13.2f}{row['ratio']:>8.2f}"
              f"{flag}")
    print()
    print("\n".join(_verdict_lines(fresh)))
    failed = regressed or not _floors_hold(fresh)
    print()
    print(f"{tag}: FAIL" + (": throughput regressed beyond tolerance"
                            if regressed else ": a floor does not hold")
          if failed else
          f"{tag}: OK, throughput within tolerance of the last record "
          "and every floor holds")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Benchmark ISS throughput (superblock dispatcher, "
                    "its basic-block rung and the reference interpreter) "
                    "or, with --serve, the serving stack; enforce the "
                    "floor table on every run.",
    )
    parser.add_argument("--serve", action="store_true",
                        help="the serving legs (keygen paths, 1/2(/4) "
                             "serving processes, named vs inline keys, "
                             f"quota shed) -> {OUTPUTS['serve']}")
    parser.add_argument("--smoke", action="store_true",
                        help="the reduced row set; appends nothing")
    parser.add_argument("--check", action="store_true",
                        help="run fresh smoke benchmarks of both families, "
                             "compare each against the last record of its "
                             "file and check the floors; exit non-zero if "
                             "either fails (appends nothing)")
    parser.add_argument("--output", default=None,
                        help=f"run-record JSON file a full run appends to "
                             f"(default {OUTPUTS['iss']}, or "
                             f"{OUTPUTS['serve']} with --serve; 'none' "
                             "disables writing)")
    parser.add_argument("--label", default=None,
                        help="free-form label stored in the run record")
    args = parser.parse_args(argv)

    if args.check:
        if args.serve or args.smoke or args.output or args.label:
            parser.error("--check compares both families against "
                         f"{OUTPUTS['iss']} and {OUTPUTS['serve']}; it "
                         "takes no other option")
        statuses = []
        for family, path in OUTPUTS.items():
            statuses.append(check_against_baseline(path, family))
            print()
        return 1 if any(statuses) else 0
    family = "serve" if args.serve else "iss"
    record = _fresh_record(family, smoke=args.smoke, label=args.label)
    print(render(record))
    output = args.output or OUTPUTS[family]
    if args.smoke:
        print("\nsmoke run: nothing appended")
    elif output != "none":
        append_record(record, output)
        print(f"\nappended run record to {output}")
    return 0 if _floors_hold(record) else 1


if __name__ == "__main__":
    sys.exit(main())
