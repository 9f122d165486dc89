"""Command-line interface: tables, benchmarks, profiles, faults, serving.

    python -m repro table1            # field-operation runtimes
    python -m repro table2 table3     # several at once
    python -m repro all               # everything
    python -m repro leakage           # the timing-leakage extension report
    python -m repro table2 --source measured   # price with our kernels
    python -m repro bench             # ISS throughput (superblock and
                                      # basic-block tiers vs reference)
                                      # -> BENCH_iss.json
    python -m repro bench --serve     # serving legs -> BENCH_serve.json
    python -m repro bench --smoke     # reduced rows, appends nothing;
                                      # every run enforces the floor table
    python -m repro bench --check     # fresh smoke runs of both families
                                      # vs the last committed records;
                                      # exits non-zero on a regression
                                      # beyond tolerance or a failed floor
    python -m repro profile mul --mode ise     # Fig.-1-style breakdown
    python -m repro profile ladder --format chrome --out trace.json
    python -m repro profile scalarmult --format jsonl
    python -m repro profile --smoke   # fast default (mul, small inputs)
    python -m repro faults ladder --mode ca   # ISS fault campaign,
                                      # benign/detected/silent breakdown
    python -m repro faults ecdh --n 200 --seed 7 --format jsonl
    python -m repro faults ecdsa --check      # determinism + hardening gate
    python -m repro ctcheck naf --mode ise    # constant-time taint check
                                      # (DESIGN.md par. 9); ladder/daaa
                                      # clean, naf deliberately flagged
    python -m repro ctcheck ladder --check --expect clean   # the CI gate
    python -m repro docs              # regenerate docs/ API reference;
                                      # --check verifies pages + links
    python -m repro serve --port 9477 # the ECC service (NDJSON over
                                      # TCP): one process executing
                                      # requests inline
    python -m repro serve --tracing --slowlog-out slow.json
                                      # trace every request; dump the
                                      # slowest trees as Chrome JSON
    python -m repro serve --workers 4 # scale-out: four serving
                                      # processes on one SO_REUSEPORT
                                      # port, comb tables built once
                                      # before the fork
    python -m repro loadgen --workers 1 --n 200 --seed 7 --check
                                      # deterministic load generator:
                                      # byte-identical JSONL across runs
    python -m repro loadgen --workers 2 --connections 8 --n 200
                                      # high-concurrency mode against a
                                      # fresh 2-process cluster
    python -m repro loadgen --n 50 --trace --scrape
                                      # traced run: join + validate the
                                      # span trees, scrape Prometheus
                                      # stats through the wire

``bench``, ``profile``, ``faults``, ``ctcheck``, ``docs``, ``serve``
and ``loadgen`` own their flag sets — run them with ``--help`` for the full list.  The registry
of delegating subcommands is :data:`SUBCOMMANDS`; the CLI help is
generated from it (and a test pins the two together).
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Dict, List, Tuple

#: Delegating subcommands: name -> (module with a ``main(argv)``,
#: one-line help).  The epilog below renders from this table, so adding
#: an entry here updates the CLI help in the same change.
SUBCOMMANDS: Dict[str, Tuple[str, str]] = {
    "bench": ("repro.analysis.bench",
              "ISS throughput and (--serve) serving benchmarks, one "
              "floor table; --check gates both"),
    "profile": ("repro.analysis.profile",
                "compiled-speed ISS profiling and span tracing"),
    "faults": ("repro.analysis.faults",
               "fault-injection campaigns against the ISS and protocols"),
    "ctcheck": ("repro.analysis.ctcheck",
                "constant-time verification via ISS secret taint"),
    "docs": ("repro.docgen",
             "generate (or --check) the docs/ API reference"),
    "serve": ("repro.serve.server",
              "ECC service over NDJSON/TCP; --workers scales out"),
    "loadgen": ("repro.serve.loadgen",
                "deterministic load generator"),
}


def _epilog() -> str:
    subs = " | ".join(f"{name} ({help_})"
                      for name, (_, help_) in sorted(SUBCOMMANDS.items()))
    return ("subcommands: table1 table2 table3 table4 table5 all leakage | "
            + subs)


def main(argv: List[str] = None) -> int:
    args_in = sys.argv[1:] if argv is None else argv
    if args_in and args_in[0] in SUBCOMMANDS:
        # Delegating subcommands own their flag sets, incompatible with
        # the table parser's nargs="+" choices.
        module = importlib.import_module(SUBCOMMANDS[args_in[0]][0])
        return module.main(args_in[1:])

    from .analysis import (
        generate_table1,
        generate_table2,
        generate_table3,
        generate_table4,
        generate_table5,
        leakage_report,
    )

    tables = {
        "table1": lambda source: generate_table1(),
        "table2": lambda source: generate_table2(source=source),
        "table3": lambda source: generate_table3(source=source),
        "table4": lambda source: generate_table4(),
        "table5": lambda source: generate_table5(),
    }

    def render_leakage() -> str:
        report = leakage_report(n=8)
        lines = ["Timing-leakage report (8 random scalars per method)", ""]
        lines.append(f"{'method':<30}{'category':<16}{'regular':>8}"
                     f"{'spread %':>10}")
        lines.append("-" * 64)
        for name, entry in report.items():
            lines.append(f"{name:<30}{entry['category']:<16}"
                         f"{str(entry['regular']):>8}"
                         f"{entry['spread'] * 100:>10.3f}")
        return "\n".join(lines)

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables (paper vs measured).",
        epilog=_epilog(),
    )
    parser.add_argument(
        "targets", nargs="+",
        choices=sorted(tables) + ["all", "leakage"],
        help="which table(s) to regenerate",
    )
    parser.add_argument(
        "--source", choices=["paper", "measured"], default="paper",
        help="per-operation cycle costs: the paper's Table I or our "
             "kernels measured on the simulator",
    )
    args = parser.parse_args(args_in)

    targets = list(args.targets)
    if "all" in targets:
        targets = sorted(tables) + [t for t in targets
                                    if t not in tables and t != "all"]
    seen = set()
    outputs = []
    for target in targets:
        if target in seen:
            continue
        seen.add(target)
        if target == "leakage":
            outputs.append(render_leakage())
        else:
            outputs.append(tables[target](args.source).render())
    try:
        print("\n\n".join(outputs))
    except BrokenPipeError:  # piping into `head` etc. is fine
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
