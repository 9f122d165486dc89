"""The repository's benchmark: one run of one workload.

    python3 perfbench/run.py --calib-ref-ms 1.0 --workload serve_named \\
        --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Prints every metric by name with its
unit, a JSON detail record, and as the last line the result object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer ledger.  Host times
are in reference-host units (see ``calib.py``).  Exits non-zero when any
output fails verification, and without a result when the program's
sources are missing.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("serve_named", "direct_varbase", "iss_ladder")
#: The end-to-end metrics every workload reports (BENCHMARK.json order).
END_TO_END = ("setup_s", "p50_ms", "tail_ms", "ops_per_s", "ok_frac",
              "mem_mb", "avr_cycles_per_op")


def _workload(name: str):
    if name == "serve_named":
        import w_serve
        return w_serve.ServeNamed, w_serve.WHY
    if name == "direct_varbase":
        import w_varbase
        return w_varbase.DirectVarbase, w_varbase.WHY
    import w_iss
    return w_iss.IssLadder, w_iss.WHY


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--calib-ref-ms", type=float, required=True,
                        help="calibration-kernel time of the reference host")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.chdir(ROOT)

    from measure import Record

    workload_cls, why = _workload(args.workload)
    record = Record(args.workload, args.seed, bool(args.trace))
    record.note("why", why)
    record.note("loop", "closed loop; host times in reference-host units")
    workload = workload_cls(ROOT, args.seed, args.calib_ref_ms,
                            bool(args.trace))
    attempted, failed = workload.run(args.seconds, record)
    if args.trace:
        record.metrics = {k: v for k, v in record.metrics.items()
                          if k not in END_TO_END}
    else:
        record.metrics = {k: record.metrics[k] for k in END_TO_END}
    record.emit(attempted, failed, correct=failed == 0)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
