"""The per-layer metric catalogue and the ledger arithmetic shared by the
workloads' traced runs.

Every traced run reports every metric below.  A layer a workload does not
exercise reads 0 there: that is the "flat elsewhere" prediction.
"""

from __future__ import annotations

from typing import Dict, List

from calib import Calibrator
from measure import Phase, Record, p50

TABLE1_KERNELS = ("opf_add", "opf_sub", "opf_mul")
MODES = ("CA", "FAST", "ISE")

#: name -> (unit, better)
CATALOGUE: Dict[str, tuple] = {
    "serve.server_p50_ms": ("ms", "lower"),
    "serve.pool_p50_ms": ("ms", "lower"),
    "serve.wire_ms": ("ms", "lower"),
    "serve.batch_mean": ("count", "higher"),
    "serve.queue_max": ("count", "lower"),
    "serve.shed": ("count", "lower"),
    "worker.service_p50_ms": ("ms", "lower"),
    "serve.overhead_p50_ms": ("ms", "lower"),
    "keys.rotate_p50_ms": ("ms", "lower"),
    "keys.overlap_p50_ms": ("ms", "lower"),
    "keys.journal_bytes": ("bytes", "lower"),
    "protocols.ecdh_ms": ("ms", "lower"),
    "protocols.xonly_ecdh_ms": ("ms", "lower"),
    "protocols.ecdsa_sign_ms": ("ms", "lower"),
    "protocols.schnorr_sign_ms": ("ms", "lower"),
    "scalarmult.fixed_base_ms": ("ms", "lower"),
    "scalarmult.naf_ms": ("ms", "lower"),
    "scalarmult.ladder_x_ms": ("ms", "lower"),
    "scalarmult.table_build_s": ("s", "lower"),
    "scalarmult.fixed_base_tables_built": ("count", "lower"),
    "scalarmult.fixed_base_tables_loaded": ("count", "higher"),
    "curves.point_ops_per_op": ("count", "lower"),
    "curves.self_ms": ("ms", "lower"),
    "field.mul_per_op": ("count", "lower"),
    "field.sqr_per_op": ("count", "lower"),
    "field.add_per_op": ("count", "lower"),
    "field.inv_per_op": ("count", "lower"),
    "field.self_ms": ("ms", "lower"),
    "mpa.word_mul_per_op": ("count", "lower"),
    "mpa.self_ms": ("ms", "lower"),
    "avr.instructions_per_op": ("count", "lower"),
    "avr.cycles_per_op": ("cycles", "lower"),
    "avr.mips.fast": ("MIPS", "higher"),
    "avr.mips.trace": ("MIPS", "higher"),
    "avr.first_run_s": ("s", "lower"),
    **{f"kernels.{kernel}.{mode}.{what}": unit
       for kernel in TABLE1_KERNELS for mode in MODES
       for what, unit in (("cycles", ("cycles", "lower")),
                          ("us", ("us", "lower")))},
    "host.calib_ms": ("ms", "lower"),
    "host.calib_iqr": ("ratio", "lower"),
    "host.raw_p50_ms": ("ms", "lower"),
    "host.raw_ops_per_s": ("1/s", "higher"),
    "obs.trace_overhead": ("ratio", "lower"),
}


def empty() -> Dict[str, float]:
    return dict.fromkeys(CATALOGUE, 0.0)


def put_all(record: Record, metrics: Dict[str, float]) -> None:
    if set(metrics) != set(CATALOGUE):
        raise ValueError("per-layer metrics drifted from the catalogue: "
                         f"{sorted(set(metrics) ^ set(CATALOGUE))}")
    for name, (unit, _better) in CATALOGUE.items():
        record.put(name, metrics[name], unit)


def compute_ledger(m: Dict[str, float], log, deltas: List, ops: int,
                   factor: float) -> None:
    """Curves, field and mpa rows: self times per op from the traced
    *log* (normalized with *factor*), exact counts from the untraced
    ``FieldOpCounter`` *deltas* of the same ops."""
    self_ns = log.self_ns()
    for layer in ("curves", "field", "mpa"):
        m[f"{layer}.self_ms"] = self_ns.get(layer, 0) / 1e6 / ops * factor
    m["curves.point_ops_per_op"] = log.top_level_count("curves") / ops
    m["field.mul_per_op"] = sum(d.mul for d in deltas) / ops
    m["field.sqr_per_op"] = sum(d.sqr for d in deltas) / ops
    m["field.add_per_op"] = sum(d.add + d.sub + d.neg for d in deltas) / ops
    m["field.inv_per_op"] = sum(d.inv for d in deltas) / ops
    m["mpa.word_mul_per_op"] = sum(d.words.mul for d in deltas) / ops


def host(m: Dict[str, float], cal: Calibrator, phase: Phase) -> None:
    m["host.calib_ms"] = cal.calib_ms()
    m["host.calib_iqr"] = cal.calib_iqr()
    m["host.raw_p50_ms"] = p50(phase.raw_lat_ms)
    m["host.raw_ops_per_s"] = phase.raw_ops_per_s()
