"""Workload ``direct_varbase``: variable-base ECDH in the benchmark process.

One thread, no server, no pool: ``repro.protocols`` at library defaults
(``FullPointEcdh`` on secp160r1, Weierstrass, Edwards and GLV,
``XOnlyEcdh`` on Montgomery), each op against a fresh seeded peer point.
"""

from __future__ import annotations

import os
import random
import resource
import time
from typing import Any, Dict, List, Tuple

import refmath
from calib import Calibrator
from measure import Phase, Record, p50, run_blocks

WHY = ("no comb table is shared and no serve code runs, so nearly all time "
       "is spent in curves, field and mpa; a serve or comb change must "
       "leave it flat")

CURVES = ("secp160r1", "weierstrass", "edwards", "glv", "montgomery")
#: Leading ops (two rounds over the five curves) whose exact field-op
#: counts are priced.
EXACT_OPS = 10
#: Leading ops (one round) the traced run replays with spans on; every
#: field op and word routine is a span, ~100k of them per op.
TRACED_OPS = len(CURVES)


def build(seed: int) -> Dict[str, Any]:
    """The program-side set-up: suites, protocol objects and own keys."""
    from repro.curves.params import make_suite
    from repro.protocols import FullPointEcdh, XOnlyEcdh

    rng = random.Random(f"{seed}:own")
    state: Dict[str, Any] = {}
    for key in CURVES:
        suite = make_suite(key)
        if key == "montgomery":
            proto = XOnlyEcdh(suite.curve, suite.base,
                              scalar_bits=suite.scalar_bits)
        else:
            proto = FullPointEcdh(suite.curve, suite.base, suite.order)
        state[key] = (suite, proto, proto.generate_keypair(rng))
    return state


def reference_curves() -> Dict[str, tuple]:
    """Curve key -> (reference curve, base point)."""
    from repro.curves import params as P

    return {
        "secp160r1": (refmath.ShortWeierstrass(P.SECP160R1_P, P.SECP160R1_A,
                                               P.SECP160R1_B),
                      (P.SECP160R1_GX, P.SECP160R1_GY)),
        "weierstrass": (refmath.ShortWeierstrass(P.OPF_P, -3,
                                                 P.WEIERSTRASS_B),
                        (P.WEIERSTRASS_GX, P.WEIERSTRASS_GY)),
        "edwards": (refmath.TwistedEdwards(P.OPF_P, P.EDWARDS_A,
                                           P.EDWARDS_D),
                    (P.EDWARDS_GX, P.EDWARDS_GY)),
        "glv": (refmath.ShortWeierstrass(P.GLV_P, 0, P.GLV_B),
                (P.GLV_GX, P.GLV_GY)),
        "montgomery": (refmath.Montgomery(P.OPF_P, P.MONTGOMERY_A,
                                          P.MONTGOMERY_B),
                       (P.MONTGOMERY_GX, P.MONTGOMERY_GY)),
    }


class DirectVarbase:
    def __init__(self, root: str, seed: int, ref_ms: float, trace: bool):
        self.root = root
        self.seed = seed
        self.cal = Calibrator(ref_ms)
        self.trace = trace
        self.refs = {key: (curve, refmath.doublings(curve, base, 330))
                     for key, (curve, base) in reference_curves().items()}

    def op_input(self, i: int) -> Tuple[str, int]:
        """Curve and peer scalar of op *i*: rounds of the five curves in a
        seeded order, each op with a fresh seeded peer."""
        order = random.Random(f"{self.seed}:round:{i // len(CURVES)}") \
            .sample(CURVES, len(CURVES))
        peer_scalar = random.Random(f"{self.seed}:peer:{i}") \
            .randrange(1, 1 << 159)
        return order[i % len(CURVES)], peer_scalar

    def run_op(self, state, i: int) -> Tuple[float, bool, Any]:
        """Op *i*, timed; returns (raw ms, output correct, counter delta)."""
        from repro.curves.point import AffinePoint

        key, peer_scalar = self.op_input(i)
        suite, proto, own = state[key]
        curve, table = self.refs[key]
        peer = refmath.mul_doublings(curve, peer_scalar, table)
        if key == "montgomery":
            arg: Any = peer[0]
        else:
            arg = AffinePoint(suite.field.from_int(peer[0]),
                              suite.field.from_int(peer[1]))
        snap = suite.field.counter.copy()
        t0 = time.perf_counter()
        try:
            out = proto.shared_secret(own, arg)
        except (ValueError, ArithmeticError) as exc:
            out = exc
        ms = (time.perf_counter() - t0) * 1e3
        delta = suite.field.counter.delta(snap)
        expect = refmath.mul_doublings(curve, own.private * peer_scalar,
                                       table)
        if isinstance(out, Exception):
            ok = False
        elif key == "montgomery":
            ok = out == expect[0]
        else:
            ok = (out.x.to_int(), out.y.to_int()) == expect
        return ms, ok, delta

    def run(self, seconds: float, record: Record) -> Tuple[int, int]:
        from probe import setup_seconds

        setup_raw = setup_seconds(self.root, "direct_varbase", self.seed)
        state = build(self.seed)
        deltas: List = []
        failures: List[int] = []
        counter = [0]

        def block(deadline: float):
            lats, busy = [], 0.0
            while not lats or time.perf_counter() < deadline:
                i = counter[0]
                counter[0] += 1
                ms, ok, delta = self.run_op(state, i)
                lats.append(ms)
                busy += ms / 1e3
                if i < EXACT_OPS:
                    deltas.append((key_of(self, i), delta))
                if not ok:
                    failures.append(i)
            return lats, busy

        phase = run_blocks(self.cal, seconds, block)
        while counter[0] < EXACT_OPS:  # a very slow host: finish the prefix
            i = counter[0]
            counter[0] += 1
            _, ok, delta = self.run_op(state, i)
            deltas.append((key_of(self, i), delta))
            if not ok:
                failures.append(i)
        mem_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted = counter[0]
        record.end_to_end(self.cal, phase, setup_raw, attempted,
                          len(failures), mem_mb,
                          priced(state, deltas) / EXACT_OPS)
        record.note("failures", failures[:20])
        if self.trace:
            self._layers(record, state, phase, deltas)
        return attempted, len(failures)

    def _layers(self, record: Record, state, phase: Phase, deltas) -> None:
        import layers
        from ledger import Instrument, SpanLog, instrument_compute, \
            span_p50_ms
        from repro.obs.metrics import METRICS

        untraced = phase.lat_ms[:TRACED_OPS]
        log = SpanLog()
        traced = []
        before = self.cal.burst()
        with Instrument(log) as inst:
            instrument_compute(inst)
            for i in range(TRACED_OPS):
                with log.span(key_of(self, i)):
                    ms, ok, _ = self.run_op(state, i)
                traced.append(ms)
                if not ok:
                    raise RuntimeError(f"traced op {i} gave a wrong result")
        factor = self.cal.factor(before, self.cal.burst())
        log.write(os.path.join(self.root, ".bench_out",
                               "spans-direct_varbase.jsonl"))
        m = layers.empty()
        m["protocols.ecdh_ms"] = span_p50_ms(log, "ecdh") * factor
        m["protocols.xonly_ecdh_ms"] = span_p50_ms(log, "xonly_ecdh") * factor
        m["scalarmult.naf_ms"] = span_p50_ms(log, "naf") * factor
        m["scalarmult.ladder_x_ms"] = span_p50_ms(log, "ladder_x") * factor
        m["scalarmult.fixed_base_ms"] = span_p50_ms(log, "fixed_base") \
            * factor
        counters = METRICS.counters_snapshot()
        m["scalarmult.fixed_base_tables_built"] = counters.get(
            "fixed_base_tables_built", 0)
        m["scalarmult.fixed_base_tables_loaded"] = counters.get(
            "fixed_base_tables_loaded", 0)
        layers.compute_ledger(m, log, [d for _, d in deltas[:TRACED_OPS]],
                              TRACED_OPS, factor)
        layers.host(m, self.cal, phase)
        m["obs.trace_overhead"] = p50([t * factor for t in traced]) \
            / p50(untraced)
        layers.put_all(record, m)


def key_of(workload: DirectVarbase, i: int) -> str:
    return workload.op_input(i)[0]


def priced(state, deltas) -> float:
    """Paper Table I ISE-mode cycles of the counted field ops."""
    from repro.avr.timing import Mode
    from repro.model.cycles import costs_for
    from repro.model.opcost import price

    total = 0.0
    for key, delta in deltas:
        profile = state[key][0].field.cost_profile
        total += price(delta, costs_for(Mode.ISE, "paper",
                                        "opf" if profile == "generic"
                                        else profile))
    return total
