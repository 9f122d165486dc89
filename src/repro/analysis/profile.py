"""Observability CLI: ``python -m repro profile``.

One command produces the paper's attribution artifacts for any target:

* ``profile mul --mode ise`` — run the Table I multiplication kernel on
  the simulator with the engine-speed profiler attached and print the
  Fig.-1-style instruction-group breakdown, the per-PC hotspot table
  (disassembled) and the routine-level flat/cumulative attribution.
* ``profile ladder`` — the full assembly Montgomery ladder, whose
  CALL/RET attribution splits the run across ``mul_sub``/``add_sub``/
  ``sub_sub`` exactly the way the paper prices it.
* ``profile scalarmult`` — the Python-side ladder over the OPF field,
  traced span-by-span (scalarmult -> point op -> field op) with
  field-/word-op counter deltas and model-priced cycle estimates.

``--format jsonl`` emits the archival event stream, ``--format chrome``
a ``chrome://tracing`` / Perfetto trace with the span tree on one track
and the ISS routine frames (1 cycle = 1 µs) on another.  The three
cooperating pieces this CLI drives are documented in DESIGN.md §4
"Observability".
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Tuple

from ..avr.disasm import disassemble_one
from ..avr.profiler import Profiler
from ..avr.timing import Mode
from ..curves.params import make_montgomery
from ..kernels import (
    KernelRunner,
    LadderKernel,
    OpfConstants,
    generate_modadd,
    generate_modsub,
    generate_opf_mul_comba,
    generate_opf_mul_mac,
)
from ..model.cycles import costs_for
from ..model.opcost import price
from ..obs import Tracer, to_chrome, to_jsonl
from ..obs.metrics import METRICS
from ..scalarmult.ladder import montgomery_ladder_x

#: Profiling targets: the Table I field kernels, the assembly ladder, and
#: the Python-side scalar multiplication.
TARGETS = ("mul", "add", "sub", "ladder", "scalarmult")

# The paper's 160-bit OPF: p = 65356 * 2^144 + 1.
_CONSTANTS = dict(u=65356, k=144)

_MODES = {"ca": Mode.CA, "fast": Mode.FAST, "ise": Mode.ISE}


def _field_kernel_source(target: str, mode: Mode) -> str:
    constants = OpfConstants(**_CONSTANTS)
    if target == "add":
        return generate_modadd(constants)
    if target == "sub":
        return generate_modsub(constants)
    # mul: the MAC kernel needs the ISE, the Comba kernel serves CA/FAST.
    if mode is Mode.ISE:
        return generate_opf_mul_mac(constants)
    return generate_opf_mul_comba(constants)


def profile_kernel(target: str, mode: Mode, reps: int = 1,
                   smoke: bool = False
                   ) -> Tuple[Tracer, Profiler, int, Any]:
    """Run a kernel target profiled+traced; returns (tracer, profiler,
    total_cycles, program) — *program* carries the symbol table.

    The ISS runs on the default dispatcher, whose profiled runs ride the
    basic-block engine: its compiled blocks carry the exact per-block
    tallies superblocks elide, so the attribution is the reference
    interpreter's.

    Alongside the ISS run, the *same* operation executes once on the
    Python OPF library under per-field-op spans, so every export pairs
    the simulator's cycle-exact attribution with the model-priced
    counter deltas of the mirror operation.
    """
    constants = OpfConstants(**_CONSTANTS)
    p = constants.p
    costs = costs_for(mode, source="paper", profile="opf")
    tracer = Tracer(field_ops=True,
                    cost_fn=lambda delta: price(delta, costs))
    with tracer:
        if target == "ladder":
            kernel = LadderKernel(constants, mode,
                                  scalar_bytes=2 if smoke else 20)
            profiler = kernel.attach_profiler()
            k = (pow(7, 123, p) | 1) % (1 << (8 * kernel.scalar_bytes))
            for _ in range(reps):
                kernel.run(k, 9)
            _mirror_op(tracer, target, k)
            return tracer, profiler, kernel.core.cycles, kernel.program
        runner = KernelRunner(_field_kernel_source(target, mode), mode)
        profiler = runner.attach_profiler()
        a, b = pow(3, 77, p), pow(5, 91, p)
        for _ in range(reps):
            runner.run(a, b)
        _mirror_op(tracer, target, a, b)
        return tracer, profiler, runner.core.cycles, runner.program


def _mirror_op(tracer: Tracer, target: str, a: int, b: int = 9) -> None:
    """Run the profiled kernel's operation once on the Python OPF library
    under a ``python-mirror`` span, producing field-op child spans whose
    counter deltas cross-check the ISS numbers."""
    suite = make_montgomery()
    with tracer.span("python-mirror", kind="mirror", target=target):
        if target == "ladder":
            bits = max(1, a.bit_length())
            montgomery_ladder_x(suite.curve, a, suite.base, bits=bits)
            return
        field = suite.field
        ea, eb = field.from_int(a), field.from_int(b)
        if target == "add":
            field.add(ea, eb)
        elif target == "sub":
            field.sub(ea, eb)
        else:
            field.mul(ea, eb)


def profile_scalarmult(mode: Mode, reps: int = 1, smoke: bool = False,
                       field_ops: bool = True) -> Tracer:
    """Trace the Python-side OPF Montgomery ladder, pricing every counter
    delta with the paper's per-mode field-operation costs."""
    costs = costs_for(mode, source="paper", profile="opf")
    tracer = Tracer(field_ops=field_ops,
                    cost_fn=lambda delta: price(delta, costs))
    suite = make_montgomery()
    bits = 16 if smoke else suite.scalar_bits
    k = (pow(7, 123, suite.field.p) | 1) % (1 << bits)
    with tracer:
        for _ in range(reps):
            montgomery_ladder_x(suite.curve, k, suite.base, bits=bits)
    return tracer


def _hotspot_table(profiler: Profiler, program: Any,
                   limit: int = 10) -> str:
    """Top PCs by cycles with disassembly, Fig.-1 style."""
    words = getattr(program, "words", None)
    lines = [f"{'pc':>8}{'cycles':>10}{'count':>8}  instruction"]
    for pc, cycles, count in profiler.hotspots(limit):
        text = ""
        if words is not None and 0 <= pc < len(words):
            second = words[pc + 1] if pc + 1 < len(words) else None
            try:
                text, _ = disassemble_one(words[pc], second, address=pc)
            except Exception:
                text = "?"
        lines.append(f"{pc:#08x}{cycles:>10}{count:>8}  {text}")
    return "\n".join(lines)


def _span_tree(tracer: Tracer, max_spans: int = 40) -> str:
    lines: List[str] = []
    total = tracer.span_count()
    for span, depth in tracer.walk():
        if len(lines) >= max_spans:
            lines.append(f"... ({total - max_spans} more spans)")
            break
        attrs = {k: v for k, v in span.attrs.items()
                 if k in ("cycles", "cycles_est", "instructions",
                          "scalar_bits", "mode")}
        extra = (" " + " ".join(f"{k}={v}" for k, v in attrs.items())
                 if attrs else "")
        lines.append(f"{'  ' * depth}{span.name} [{span.kind}] "
                     f"{span.dur_ns / 1000:.1f}us{extra}")
    return "\n".join(lines)


def render_text(tracer: Optional[Tracer], profiler: Optional[Profiler],
                program: Any = None, folded: bool = True) -> str:
    sections: List[str] = []
    if profiler is not None and profiler.total_instructions:
        sections.append("instruction mix (Fig. 1 style)\n"
                        + profiler.report())
        sections.append("hotspots\n" + _hotspot_table(profiler, program))
        sections.append("routines (CALL/RET attribution)\n"
                        + profiler.routine_report())
        if folded:
            stacks = profiler.folded_stacks()
            if stacks:
                sections.append(
                    "folded stacks (flamegraph.pl input)\n"
                    + "\n".join(stacks))
    if tracer is not None and tracer.roots:
        sections.append(f"spans ({tracer.span_count()})\n"
                        + _span_tree(tracer))
    metrics = METRICS.snapshot()
    if metrics:
        sections.append("metrics\n" + "\n".join(
            f"  {k} = {v}" for k, v in metrics.items()))
    return "\n\n".join(sections)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description="Profile a kernel or scalar multiplication: ISS "
                    "instruction-group/hotspot/routine attribution plus "
                    "hierarchical spans with counter deltas.",
    )
    parser.add_argument(
        "target", nargs="?", choices=TARGETS,
        help="what to profile (Table I kernels, the assembly ladder, or "
             "the Python-side scalar multiplication); defaults to 'mul' "
             "with --smoke")
    parser.add_argument("--mode", choices=sorted(_MODES), default="ise",
                        help="processor mode (default ise)")
    parser.add_argument("--format", choices=("text", "jsonl", "chrome"),
                        default="text", dest="fmt",
                        help="output format (default text)")
    parser.add_argument("--reps", type=int, default=1,
                        help="times to run the target (default 1)")
    parser.add_argument("--out", default=None,
                        help="write output to this file instead of stdout")
    parser.add_argument("--smoke", action="store_true",
                        help="small fast configuration (2-byte ladder "
                             "scalar, 16-bit scalarmult); target defaults "
                             "to 'mul'")
    args = parser.parse_args(argv)

    if args.target is None:
        if not args.smoke:
            parser.error("a target is required unless --smoke is given")
        args.target = "mul"
    mode = _MODES[args.mode]

    profiler: Optional[Profiler] = None
    program: Any = None
    total_cycles: Optional[int] = None
    if args.target == "scalarmult":
        tracer = profile_scalarmult(mode, reps=args.reps, smoke=args.smoke)
    else:
        tracer, profiler, total_cycles, program = profile_kernel(
            args.target, mode, reps=args.reps, smoke=args.smoke)

    if args.fmt == "text":
        out = render_text(tracer, profiler, program)
    elif args.fmt == "jsonl":
        out = to_jsonl(tracer, profiler)
    else:
        out = json.dumps(to_chrome(tracer, profiler, total_cycles),
                         indent=None, sort_keys=True)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out if out.endswith("\n") else out + "\n")
        print(f"wrote {args.fmt} profile of {args.target} ({args.mode}) "
              f"to {args.out}")
    else:
        try:
            print(out)
        except BrokenPipeError:
            return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
