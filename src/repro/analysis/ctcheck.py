"""Constant-time verification CLI: ``python -m repro ctcheck``.

Runs a kernel on the AVR ISS with the secret-taint engine of
:mod:`repro.avr.taint` attached and reports every point where secret
data reaches an execution decision — a conditional branch, a load/store
address, or a data-dependent cycle count.  The architecture (taint
lattice, per-instruction propagation rules, violation taxonomy) is
documented in DESIGN.md §9 "Constant-time verification".

Targets mirror the profiler CLI plus the exponentiation foil pair:

* ``mul`` / ``add`` / ``sub`` — the Table I field kernels with *both*
  operands marked secret.  ``mul`` exercises the Comba kernel in CA/FAST
  and the MAC-ISE kernel in ISE mode; all must come back clean.
* ``ladder`` — the assembly Montgomery ladder (2-byte scalar by default
  for CLI speed; ``--scalar-bytes 20`` for the full width) with the
  scalar buffer marked secret.  Clean: the driver walks the scalar with
  a ``SBC r25, r25`` mask and masked swaps, never a branch.
* ``daaa`` — square-and-multiply-always exponentiation with a masked
  operand select.  Clean.
* ``naf`` — NAF double-and-add whose digit dispatch branches on the
  recoded digit.  Deliberately *flagged*: the checker must attribute
  secret-dependent branches to the ``digit_step`` routine.
* ``scalarmult`` — the full 160-bit ladder (same harness as ``ladder``
  with ``--scalar-bytes 20``; ISE mode by default because the taint
  phase steps the reference interpreter).

``--check`` is the CI gate: it runs every (target, mode) twice and
byte-compares the JSONL streams (determinism), then re-runs under the
reference interpreter and compares every report field except ``engine``
against the default run (engine parity).  ``--expect clean|flagged`` turns the verdict into the
exit status — ``make ctcheck-smoke`` pins ladder/daaa clean and naf
flagged.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..avr.taint import TaintTracker
from ..avr.timing import Mode
from ..kernels import (
    ADDR_A,
    ADDR_B,
    ExpoKernel,
    KernelRunner,
    LadderKernel,
    OPERAND_BYTES,
    OpfConstants,
    generate_modadd,
    generate_modsub,
    generate_opf_mul_comba,
    generate_opf_mul_mac,
)
from ..kernels.ladder_kernel import ADDR_SCALAR
from ..obs import ctcheck_to_jsonl

#: Check targets: the Table I field kernels, the assembly ladder (short
#: and full-width), and the DAAA/NAF exponentiation foil pair.
TARGETS = ("mul", "add", "sub", "ladder", "daaa", "naf", "scalarmult")

# The paper's 160-bit OPF: p = 65356 * 2^144 + 1.
_CONSTANTS = dict(u=65356, k=144)

_MODES = {"ca": Mode.CA, "fast": Mode.FAST, "ise": Mode.ISE}


def _field_kernel_source(target: str, mode: Mode,
                         constants: OpfConstants) -> str:
    if target == "add":
        return generate_modadd(constants)
    if target == "sub":
        return generate_modsub(constants)
    # mul: the MAC kernel needs the ISE, the Comba kernel serves CA/FAST.
    if mode is Mode.ISE:
        return generate_opf_mul_mac(constants)
    return generate_opf_mul_comba(constants)


def _deterministic_scalar(bits: int) -> int:
    """A fixed, engine-independent scalar with both halves populated."""
    k = pow(3, 77, 1 << bits) | 1
    return k | (1 << (bits - 1))


def check_target(target: str, mode_key: str,
                 engine: str = "trace",
                 scalar_bytes: Optional[int] = None) -> Dict[str, Any]:
    """Run one (target, mode) under the taint tracker; return the report.

    The report is the JSONL-ready summary dict: verdict, run statistics
    and the deduplicated violation list (``TaintViolation.as_dict()``
    per distinct PC site, in first-occurrence order).  The functional
    result is cross-checked against an uninstrumented run of the same
    harness (``value_ok``) so a taint-rule bug that perturbs execution
    cannot masquerade as a clean verdict.
    """
    if target not in TARGETS:
        raise ValueError(f"unknown ctcheck target {target!r}")
    mode = _MODES[mode_key]
    constants = OpfConstants(**_CONSTANTS)
    p = constants.p
    a = pow(7, 123, p)
    b = pow(11, 321, p)

    if target in ("mul", "add", "sub"):
        source = _field_kernel_source(target, mode, constants)
        runner = KernelRunner(source, mode, engine=engine)
        runner.stage(a, b)
        tracker = TaintTracker(runner.core,
                               symbols=runner.program.symbols)
        tracker.mark_data(ADDR_A, OPERAND_BYTES)
        tracker.mark_data(ADDR_B, OPERAND_BYTES)
        secret_bytes = 2 * OPERAND_BYTES
        cycles = tracker.run()
        value = runner.read_result()
        expected, _ = KernelRunner(source, mode, engine=engine).run(a, b)
        core = runner.core
    elif target in ("ladder", "scalarmult"):
        n = scalar_bytes if scalar_bytes is not None else (
            20 if target == "scalarmult" else 2)
        kernel = LadderKernel(constants, mode, scalar_bytes=n,
                              engine=engine)
        k = _deterministic_scalar(8 * n)
        kernel.load_operands(k, 9)
        tracker = TaintTracker(kernel.core,
                               symbols=kernel.program.symbols)
        tracker.mark_data(ADDR_SCALAR, n)
        secret_bytes = n
        cycles = tracker.run()
        state = kernel.output_state()
        value = (state["X1"], state["Z1"])
        ref = LadderKernel(constants, mode, scalar_bytes=n, engine=engine)
        x_ref, z_ref, _ = ref.run(k, 9)
        expected = (x_ref, z_ref)
        core = kernel.core
    else:  # daaa / naf
        n = scalar_bytes if scalar_bytes is not None else 2
        kernel = ExpoKernel(constants, mode, method=target, exp_bytes=n,
                            engine=engine)
        k = _deterministic_scalar(8 * n)
        kernel.load_operands(k, a)
        tracker = TaintTracker(kernel.core,
                               symbols=kernel.program.symbols)
        address, length = kernel.secret_region
        tracker.mark_data(address, length)
        secret_bytes = length
        cycles = tracker.run()
        value = kernel.result()
        expected = pow(a, k, p)
        core = kernel.core

    stats = tracker.summary()
    return {
        "target": target,
        "mode": mode_key,
        "engine": core.engine,
        "secret_bytes": secret_bytes,
        "cycles": cycles,
        "instructions": core.instructions_retired,
        "value_ok": value == expected,
        "verdict": "flagged" if tracker.violations else "clean",
        "sites": stats["sites"],
        "hits": stats["hits"],
        "branch_sites": stats["branch"],
        "addr_sites": stats["addr"],
        "cycle_skew_sites": stats["cycle_skew_sites"],
        "violations": [v.as_dict() for v in tracker.violations],
    }


def _format_text(reports: List[Dict[str, Any]]) -> str:
    lines: List[str] = []
    for report in reports:
        verdict = report["verdict"].upper()
        lines.append(
            f"ctcheck {report['target']:<10} mode={report['mode']:<4} "
            f"engine={report['engine']:<9} "
            f"{report['instructions']:>9} instr {report['cycles']:>9} cyc  "
            f"secret={report['secret_bytes']}B  {verdict}"
        )
        if not report["value_ok"]:
            lines.append("    WARNING: instrumented result differs from "
                         "the uninstrumented run")
        for v in report["violations"]:
            skew = (f"  (+{v['cycle_skew']} cyc skew)"
                    if v.get("cycle_skew") else "")
            lines.append(
                f"    {v['kind']:<6} pc={v['pc']:#06x} "
                f"{v['instruction']:<18} in {v['routine']:<12} "
                f"x{v['count']:<4} {v['detail']}{skew}"
            )
    return "\n".join(lines) + "\n"


def _run_matrix(targets: List[str], mode_keys: List[str],
                engine: str,
                scalar_bytes: Optional[int]) -> List[Dict[str, Any]]:
    return [check_target(t, m, engine=engine, scalar_bytes=scalar_bytes)
            for t in targets for m in mode_keys]


def _consistency_check(targets: List[str], mode_keys: List[str],
                       scalar_bytes: Optional[int],
                       first: List[Dict[str, Any]]) -> List[str]:
    """Determinism + engine-parity gate behind ``--check``.

    Returns a list of human-readable failures (empty = pass).  The first
    (default-engine) run is byte-compared against a rerun, then the whole
    matrix is repeated under the reference interpreter and every field
    except ``engine`` must agree — the taint phase itself always steps
    the interpreter, so this pins the engine-handoff logic.
    """
    failures: List[str] = []
    rerun = _run_matrix(targets, mode_keys, "trace", scalar_bytes)
    if ctcheck_to_jsonl(rerun) != ctcheck_to_jsonl(first):
        failures.append("determinism: rerun produced different JSONL")
    reference = _run_matrix(targets, mode_keys, "reference", scalar_bytes)
    for default_r, ref_r in zip(first, reference):
        for key in default_r:
            if key == "engine":
                continue
            if default_r[key] != ref_r[key]:
                failures.append(
                    f"engine parity: {default_r['target']}/"
                    f"{default_r['mode']} field {key!r} differs "
                    f"(trace={default_r[key]!r}, "
                    f"reference={ref_r[key]!r})")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro ctcheck",
        description="Constant-time taint verification on the AVR ISS "
                    "(DESIGN.md par. 9).")
    parser.add_argument("target", choices=TARGETS,
                        help="kernel to check (naf is the deliberately "
                             "leaky foil)")
    parser.add_argument("--mode", choices=list(_MODES) + ["all"],
                        default=None,
                        help="timing mode (default: all three; "
                             "scalarmult defaults to ise)")
    parser.add_argument("--scalar-bytes", type=int, default=None,
                        help="override secret width in bytes "
                             "(ladder/daaa/naf default 2, scalarmult 20)")
    parser.add_argument("--format", choices=("text", "jsonl"),
                        default="text")
    parser.add_argument("--out", default=None,
                        help="write the report stream to a file instead "
                             "of stdout")
    parser.add_argument("--check", action="store_true",
                        help="double-run byte-compare (determinism) and "
                             "default-vs-reference report compare (parity)")
    parser.add_argument("--expect", choices=("clean", "flagged"),
                        default=None,
                        help="exit non-zero unless every mode's verdict "
                             "matches (the CI gate)")
    args = parser.parse_args(argv)

    mode_default = "ise" if args.target == "scalarmult" else "all"
    mode_key = args.mode or mode_default
    mode_keys = list(_MODES) if mode_key == "all" else [mode_key]
    reports = _run_matrix([args.target], mode_keys, "trace",
                          args.scalar_bytes)

    output = (ctcheck_to_jsonl(reports) if args.format == "jsonl"
              else _format_text(reports))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(output)
    else:
        sys.stdout.write(output)

    status = 0
    for report in reports:
        if not report["value_ok"]:
            print(f"FAIL: {report['target']}/{report['mode']} "
                  f"instrumented value mismatch", file=sys.stderr)
            status = 1

    if args.check:
        failures = _consistency_check([args.target], mode_keys,
                                      args.scalar_bytes, reports)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            status = 1
        else:
            print(f"check ok: {args.target} deterministic and "
                  f"engine-consistent across {len(mode_keys)} mode(s)",
                  file=sys.stderr)

    if args.expect is not None:
        for report in reports:
            if report["verdict"] != args.expect:
                print(f"FAIL: {report['target']}/{report['mode']} verdict "
                      f"{report['verdict']!r}, expected {args.expect!r}",
                      file=sys.stderr)
                status = 1

    return status


if __name__ == "__main__":
    sys.exit(main())
