"""Fault-injection campaigns: ``python -m repro faults``.

Sweeps seeded transient faults (DESIGN.md §7 "Fault model &
countermeasures") over the measured assembly kernels and the Python-side
algorithms, runs every fault against the *bare* and the *hardened*
implementation, and classifies each trial:

* **benign** — the output equals the fault-free golden run (the fault hit
  dead state, or was absorbed — e.g. a projective rescaling of the ladder
  state);
* **detected** — a countermeasure fired (input/output validation, ladder
  coherence, temporal redundancy, verify-after-sign) or the run crashed
  (illegal opcode, step budget, …).  A crash/reset is observable, so it
  counts as detection on the bare build too;
* **silent** — the run completed, no check fired, and the output differs
  from golden: the dangerous case fault attacks exploit.

Four campaign targets:

``ladder``
    The assembly Montgomery ladder on the cycle-accurate ISS
    (:class:`~repro.kernels.ladder_kernel.LadderKernel`), faulted through
    :class:`~repro.faults.injector.FaultInjector` — SRAM/register/MAC bit
    flips, instruction skips, transient opcode corruption at seeded
    trigger cycles.  The hardened classification runs the host-side
    countermeasure chain (:meth:`LadderKernel.validate_output`) and falls
    back to a golden-state comparison standing in for the
    compute-twice-and-compare countermeasure (detector ``"recompute"`` —
    sound under the single-transient-fault model, where the second
    execution is fault-free by assumption).

``scalarmult``
    The Python x-only ladder: plain vs coherence-checked
    (:func:`~repro.scalarmult.montgomery_ladder_x_checked`), faulted via
    the ``step_hook`` seam.  Measures the *coherence check alone* — no
    redundancy, no golden oracle on the hardened path.

``ecdh``
    :class:`~repro.protocols.ecdh.XOnlyEcdh` shared-secret derivation,
    hardened (validation + checked ladder + temporal redundancy + retry)
    vs bare, one ladder-state fault per derivation.

``ecdsa``
    :class:`~repro.protocols.ecdsa.Ecdsa` signing with a corrupted
    scalar-multiplication backend (:class:`~repro.faults.pyfaults.FaultyMult`),
    hardened (blinding + verify-after-sign + retry) vs bare.

Every campaign is a pure function of ``(target, mode, n, seed)`` — the
JSONL export (through :func:`repro.obs.export.faults_to_jsonl`) is
byte-identical across runs, which ``--check`` verifies by running the
campaign twice, and the test-suite locks in.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Any, Callable, Dict, List, Optional

from ..avr.timing import Mode
from ..curves.params import MONTGOMERY_GX, OPF_K, OPF_U, make_montgomery, \
    make_secp160r1
from ..faults import (
    FaultDetectedError,
    FaultInjector,
    FaultyMult,
    generate_faults,
    generate_ladder_faults,
    generate_mult_faults,
)
from ..kernels import LadderKernel, OpfConstants
from ..kernels.ladder_kernel import ADDR_SCALAR, SLOT_BASE
from ..obs.export import faults_to_jsonl
from ..protocols.ecdh import XOnlyEcdh, XOnlyKeyPair
from ..protocols.ecdsa import Ecdsa
from ..scalarmult import (
    adapter_for,
    montgomery_ladder_x,
    montgomery_ladder_x_checked,
    scalar_mult_naf,
)

__all__ = [
    "FaultRecord",
    "CampaignResult",
    "run_ladder_campaign",
    "run_scalarmult_campaign",
    "run_ecdh_campaign",
    "run_ecdsa_campaign",
    "run_campaign",
    "main",
]

TARGETS = ("ladder", "scalarmult", "ecdh", "ecdsa")

_MODES = {"ca": Mode.CA, "fast": Mode.FAST, "ise": Mode.ISE}

#: Per-target trial counts for a quick (`--smoke`) campaign.
SMOKE_TRIALS = {"ladder": 60, "scalarmult": 60, "ecdh": 60, "ecdsa": 40}

#: Per-target default trial counts for a full CLI campaign.
DEFAULT_TRIALS = {"ladder": 200, "scalarmult": 400, "ecdh": 200,
                  "ecdsa": 100}


@dataclass(frozen=True)
class FaultRecord:
    """One fault, classified against the bare and hardened implementation."""

    campaign: str
    index: int
    fault: Dict[str, Any]
    baseline: str  # "benign" | "detected" | "silent"
    hardened: str  # "benign" | "detected" | "silent"
    detector: Optional[str] = None  # countermeasure that fired (hardened)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "campaign": self.campaign,
            "index": self.index,
            "fault": self.fault,
            "baseline": self.baseline,
            "hardened": self.hardened,
            "detector": self.detector,
        }


@dataclass
class CampaignResult:
    """All trials of one campaign plus its provenance."""

    campaign: str
    seed: int
    mode: Optional[str] = None
    records: List[FaultRecord] = field(default_factory=list)

    def summary(self) -> Dict[str, Any]:
        baseline = Counter(r.baseline for r in self.records)
        hardened = Counter(r.hardened for r in self.records)
        detectors = Counter(r.detector for r in self.records
                            if r.detector is not None)
        out: Dict[str, Any] = {
            "campaign": self.campaign,
            "seed": self.seed,
            "trials": len(self.records),
            "baseline": {k: baseline.get(k, 0)
                         for k in ("benign", "detected", "silent")},
            "hardened": {k: hardened.get(k, 0)
                         for k in ("benign", "detected", "silent")},
            "detectors": dict(sorted(detectors.items())),
        }
        if self.mode is not None:
            out["mode"] = self.mode
        return out

    def to_jsonl(self) -> str:
        return faults_to_jsonl(self.records, self.summary())

    def render(self) -> str:
        s = self.summary()
        title = f"Fault campaign: {self.campaign}"
        if self.mode:
            title += f" ({self.mode})"
        title += f" — {s['trials']} trials, seed {s['seed']}"
        lines = [title, ""]
        lines.append(f"{'':<12}{'benign':>8}{'detected':>10}{'silent':>8}")
        lines.append("-" * 38)
        for label in ("baseline", "hardened"):
            row = s[label]
            lines.append(f"{label:<12}{row['benign']:>8}"
                         f"{row['detected']:>10}{row['silent']:>8}")
        if s["detectors"]:
            lines.append("")
            lines.append("detections by countermeasure (hardened):")
            for name, count in s["detectors"].items():
                lines.append(f"  {name:<24}{count:>6}")
        return "\n".join(lines)


def _derive_scalar(tag: str, seed: int, bits: int) -> int:
    """A deterministic full-width scalar: top bit set so every ladder rung
    processes meaningful state (low-weight scalars leave early rungs at the
    projective infinity (X : 0), where bit flips are absorbed as
    rescalings)."""
    digest = sha256(f"repro-faults-{tag}-{seed}".encode()).digest()
    value = int.from_bytes(digest * ((bits // 256) + 1), "big")
    value %= 1 << (bits - 1)
    return value | (1 << (bits - 2)) | 1


# -- ladder (ISS) ---------------------------------------------------------


def run_ladder_campaign(n: int, seed: int, mode: Mode = Mode.CA,
                        scalar_bytes: int = 2) -> CampaignResult:
    """Fault the assembly ladder kernel on the simulator.

    Each trial restages the kernel on a factory-fresh core, advances to
    the fault's trigger cycle, strikes, and runs to completion.  Per-rung
    work is scalar-independent, so a short scalar (default 16 bits = 16
    rungs) exercises the same datapath as the full 160-bit ladder at a
    fraction of the simulation time.
    """
    constants = OpfConstants(u=OPF_U, k=OPF_K)
    suite = make_montgomery(functional=True)
    kernel = LadderKernel(constants, mode, scalar_bytes=scalar_bytes)
    bits = 8 * scalar_bytes
    k = _derive_scalar("ladder", seed, bits)
    gold_x, gold_z, gold_cycles = kernel.run(k, MONTGOMERY_GX)
    p = constants.p
    faults = generate_faults(
        n, seed, max_cycle=gold_cycles,
        sram_ranges=[(SLOT_BASE, ADDR_SCALAR + scalar_bytes)],
        registers=True,
        accumulator=(mode is Mode.ISE),
        code=True,
    )
    budget = 3 * gold_cycles + 10_000
    result = CampaignResult(campaign="ladder", seed=seed, mode=mode.name)
    for index, spec in enumerate(faults):
        kernel.reset_core()
        kernel.load_operands(k, MONTGOMERY_GX)
        crash: Optional[str] = None
        try:
            FaultInjector(kernel.core, [spec], max_steps=budget).run()
        except Exception as exc:  # noqa: BLE001 — any crash is a detection
            crash = type(exc).__name__
        if crash is not None:
            record = FaultRecord(
                campaign="ladder", index=index, fault=spec.as_dict(),
                baseline="detected", hardened="detected",
                detector=f"crash:{crash}")
            result.records.append(record)
            continue
        state = kernel.output_state()
        x1, z1 = state["X1"] % p, state["Z1"] % p
        same = (x1 * (gold_z % p) - (gold_x % p) * z1) % p == 0 \
            and not (x1 == 0 and z1 == 0)
        detector = kernel.validate_output(k, suite.curve, suite.base)
        if detector is None and not same:
            # The validation chain missed it; the compute-twice-and-compare
            # countermeasure cannot (under the single-transient-fault model
            # the second run is golden), so classify via the golden state.
            detector = "recompute"
        hardened = "benign" if detector is None else "detected"
        baseline = "benign" if same else "silent"
        result.records.append(FaultRecord(
            campaign="ladder", index=index, fault=spec.as_dict(),
            baseline=baseline, hardened=hardened, detector=detector))
    return result


# -- scalarmult (Python ladder) -------------------------------------------


def run_scalarmult_campaign(n: int, seed: int,
                            bits: int = 160) -> CampaignResult:
    """Fault the Python x-only ladder; hardened = coherence check only."""
    suite = make_montgomery(functional=True)
    curve, base = suite.curve, suite.base
    k = _derive_scalar("scalarmult", seed, bits)
    gold = montgomery_ladder_x(curve, k, base, bits=bits)
    faults = generate_ladder_faults(n, seed, rungs=bits, bits=bits)
    result = CampaignResult(campaign="scalarmult", seed=seed)
    for index, fault in enumerate(faults):
        out = montgomery_ladder_x(curve, k, base, bits=bits,
                                  step_hook=fault.hook())
        same = (out.x * gold.z) == (gold.x * out.z) \
            and not (out.x.is_zero() and out.z.is_zero())
        baseline = "benign" if same else "silent"
        try:
            checked = montgomery_ladder_x_checked(curve, k, base, bits=bits,
                                                  step_hook=fault.hook())
        except FaultDetectedError:
            hardened, detector = "detected", "ladder-coherence"
        else:
            ok = (checked.x * gold.z) == (gold.x * checked.z)
            hardened = "benign" if ok else "silent"
            detector = None
        result.records.append(FaultRecord(
            campaign="scalarmult", index=index, fault=fault.as_dict(),
            baseline=baseline, hardened=hardened, detector=detector))
    return result


# -- ecdh -----------------------------------------------------------------


def run_ecdh_campaign(n: int, seed: int, bits: int = 160) -> CampaignResult:
    """Fault x-only ECDH derivations, hardened vs bare."""
    suite = make_montgomery(functional=True)
    curve, base = suite.curve, suite.base
    hard = XOnlyEcdh(curve, base, scalar_bits=bits)
    bare = XOnlyEcdh(curve, base, scalar_bits=bits, hardened=False)
    alice = _derive_scalar("ecdh-alice", seed, bits)
    bob = _derive_scalar("ecdh-bob", seed, bits)
    own = XOnlyKeyPair(private=alice,
                       public_x=hard._ladder_x(alice, base.x.to_int()))
    peer_x = hard._ladder_x(bob, base.x.to_int())
    gold = hard.shared_secret(own, peer_x)
    faults = generate_ladder_faults(n, seed, rungs=bits, bits=bits)
    result = CampaignResult(campaign="ecdh", seed=seed)
    for index, fault in enumerate(faults):
        try:
            out = bare.shared_secret(own, peer_x, fault_hook=fault.hook())
        except ValueError:
            baseline = "detected"  # infinity output: observable even bare
        else:
            baseline = "benign" if out == gold else "silent"
        try:
            out = hard.shared_secret(own, peer_x, fault_hook=fault.hook())
        except FaultDetectedError:
            hardened, detector = "detected", hard.last_detection
        except ValueError:
            hardened, detector = "detected", "output-format"
        else:
            detector = hard.last_detection
            if out != gold:
                hardened = "silent"
            else:
                hardened = "benign" if detector is None else "detected"
        result.records.append(FaultRecord(
            campaign="ecdh", index=index, fault=fault.as_dict(),
            baseline=baseline, hardened=hardened, detector=detector))
    return result


# -- ecdsa ----------------------------------------------------------------


def run_ecdsa_campaign(n: int, seed: int) -> CampaignResult:
    """Fault ECDSA signing through a corrupted scalar-mult backend."""
    suite = make_secp160r1(functional=True)
    curve, base, order = suite.curve, suite.base, suite.order
    private = _derive_scalar("ecdsa-key", seed, 160)
    message = f"repro fault campaign {seed}".encode()

    def clean_mult(k: int, point) -> Any:
        return scalar_mult_naf(adapter_for(curve, point), k)

    golden_signer = Ecdsa(curve, base, order)
    golden = golden_signer.sign(private, message)
    params = generate_mult_faults(n, seed, bits=160)
    result = CampaignResult(campaign="ecdsa", seed=seed)
    for index, prm in enumerate(params):
        bare = Ecdsa(curve, base, order, mult=FaultyMult(clean_mult, **prm),
                     hardened=False)
        try:
            sig = bare.sign(private, message)
        except ValueError:
            baseline = "detected"  # r = 0 / infinity: signing aborts
        else:
            baseline = "benign" if sig == golden else "silent"
        hard = Ecdsa(curve, base, order, mult=FaultyMult(clean_mult, **prm))
        try:
            sig = hard.sign(private, message)
        except FaultDetectedError:
            hardened, detector = "detected", hard.last_detection
        except ValueError:
            hardened, detector = "detected", "validation"
        else:
            detector = hard.last_detection
            if sig != golden:
                hardened = "silent"
            else:
                hardened = "benign" if detector is None else "detected"
        result.records.append(FaultRecord(
            campaign="ecdsa", index=index, fault=dict(prm),
            baseline=baseline, hardened=hardened, detector=detector))
    return result


# -- dispatch + CLI -------------------------------------------------------


def run_campaign(target: str, n: int, seed: int,
                 mode: Mode = Mode.CA) -> CampaignResult:
    """Run one campaign by target name (the CLI/test entry point)."""
    if target == "ladder":
        return run_ladder_campaign(n, seed, mode=mode)
    if target == "scalarmult":
        return run_scalarmult_campaign(n, seed)
    if target == "ecdh":
        return run_ecdh_campaign(n, seed)
    if target == "ecdsa":
        return run_ecdsa_campaign(n, seed)
    raise ValueError(f"unknown campaign target {target!r}")


def _check(target: str, n: int, seed: int, mode: Mode) -> int:
    """Determinism + hardening gate: campaign twice, compare, assert."""
    first = run_campaign(target, n, seed, mode=mode)
    second = run_campaign(target, n, seed, mode=mode)
    a, b = first.to_jsonl(), second.to_jsonl()
    if a != b:
        print("FAIL: two identically-seeded campaigns serialized "
              "differently", file=sys.stderr)
        return 1
    s = first.summary()
    failures = []
    if s["hardened"]["silent"] != 0:
        failures.append(
            f"hardened build reported {s['hardened']['silent']} silent "
            f"corruptions (expected 0)")
    if s["baseline"]["silent"] == 0:
        failures.append(
            "baseline build reported no silent corruptions — the campaign "
            "is not exercising the countermeasures")
    print(first.render())
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"\nOK: byte-identical across two runs; baseline "
          f"{s['baseline']['silent']}/{s['trials']} silent, hardened 0.")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro faults",
        description="Seeded fault-injection campaigns over the ISS kernels "
                    "and the Python ECC stack (see DESIGN.md §7).",
    )
    parser.add_argument("target", choices=TARGETS,
                        help="what to fault: the assembly ladder on the "
                             "simulator, the Python ladder, or a protocol")
    parser.add_argument("--mode", choices=sorted(_MODES), default="ca",
                        help="simulator timing mode (ladder target only)")
    parser.add_argument("--n", type=int, default=None,
                        help="number of fault trials (default: per-target, "
                             f"{DEFAULT_TRIALS})")
    parser.add_argument("--seed", type=int, default=7,
                        help="campaign seed (same seed => byte-identical "
                             "JSONL)")
    parser.add_argument("--format", choices=["text", "jsonl"],
                        default="text", help="output format")
    parser.add_argument("--out", default=None,
                        help="write output to this file instead of stdout")
    parser.add_argument("--smoke", action="store_true",
                        help=f"quick campaign ({SMOKE_TRIALS} trials)")
    parser.add_argument("--check", action="store_true",
                        help="run the campaign twice; exit non-zero unless "
                             "the JSONL is byte-identical, the hardened "
                             "build has 0 silent corruptions and the "
                             "baseline has > 0")
    args = parser.parse_args(argv)

    n = args.n
    if n is None:
        n = (SMOKE_TRIALS if args.smoke else DEFAULT_TRIALS)[args.target]
    mode = _MODES[args.mode]
    if args.check:
        return _check(args.target, n, args.seed, mode)
    result = run_campaign(args.target, n, args.seed, mode=mode)
    output = result.to_jsonl() if args.format == "jsonl" else \
        result.render() + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(output)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
