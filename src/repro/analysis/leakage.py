"""Timing-leakage analysis of the scalar-multiplication methods.

The paper splits Table II into "high-speed" and "constant round" columns
and argues the latter resist timing/SPA attacks because their execution
profile does not depend on the scalar.  This module makes that claim
quantitatively checkable on the reproduction, TVLA-style.  Its
passive, instruction-level counterpart is DESIGN.md §9 "Constant-time
verification"; the *active* implementation-attack counterpart is
DESIGN.md §7 "Fault model & countermeasures":

* :func:`collect_traces` runs a method over many scalars and records the
  exact field-operation vector and its cycle estimate per run;
* :func:`is_regular` — the strong property: *identical* operation vectors
  for every same-length scalar (true for the ladder, co-Z ladder, DAAA);
* :func:`relative_spread` / :func:`welch_t` — distinguishability metrics
  for the leaky methods (NAF, GLV), in the style of fixed-vs-random TVLA;
* :func:`scalar_weight_correlation` — the mechanism behind the leak: NAF
  cycle counts correlate with the scalar's NAF weight.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from statistics import mean, pstdev
from typing import Dict, List, Optional, Sequence, Tuple

from ..avr.timing import Mode
from ..curves.params import make_suite
from ..model.cycles import costs_for
from ..model.opcost import price, run_method
from ..scalarmult.recoding import hamming_weight, naf_digits


@dataclass(frozen=True)
class TraceSample:
    """One scalar multiplication's observable profile."""

    scalar: int
    op_vector: Tuple[Tuple[str, int], ...]
    cycles: float


def _random_scalar(rng: random.Random, bits: int,
                   order: Optional[int]) -> int:
    k = rng.getrandbits(bits) | (1 << (bits - 1))
    if order:
        k %= order
        k |= 1 << (bits - 2)
    return k


def collect_traces(curve_key: str, method: str, scalars: Sequence[int],
                   mode: Mode = Mode.CA, source: str = "paper",
                   ) -> List[TraceSample]:
    """Run *method* for each scalar on a fresh suite; capture the profile."""
    out = []
    for k in scalars:
        suite = make_suite(curve_key)
        profile = suite.field.cost_profile
        if profile == "generic":
            profile = "opf"
        run_method(suite, method, k)
        counts = suite.field.counter
        vector = tuple(sorted(counts.snapshot().items()))
        cycles = price(counts, costs_for(mode, source, profile))
        out.append(TraceSample(scalar=k, op_vector=vector, cycles=cycles))
    return out


def random_traces(curve_key: str, method: str, n: int = 20,
                  bits: int = 160, seed: int = 0x7EA5,
                  mode: Mode = Mode.CA) -> List[TraceSample]:
    """Traces over n uniformly random full-length scalars."""
    rng = random.Random(seed)
    order = make_suite(curve_key).order
    scalars = [_random_scalar(rng, bits, order) for _ in range(n)]
    return collect_traces(curve_key, method, scalars, mode)


def is_regular(traces: Sequence[TraceSample]) -> bool:
    """True when every trace has the *identical* operation vector."""
    return len({t.op_vector for t in traces}) == 1


def relative_spread(traces: Sequence[TraceSample]) -> float:
    """(max - min) / mean of the cycle estimates; 0 for regular methods."""
    cycles = [t.cycles for t in traces]
    avg = mean(cycles)
    if avg == 0:
        raise ValueError("empty traces")
    return (max(cycles) - min(cycles)) / avg


def welch_t(sample_a: Sequence[float], sample_b: Sequence[float]) -> float:
    """Welch's t statistic (TVLA-style fixed-vs-random distinguisher).

    |t| > 4.5 is the conventional leakage threshold.  Degenerate inputs
    (both samples constant and equal) return 0.
    """
    if len(sample_a) < 2 or len(sample_b) < 2:
        raise ValueError("need at least two observations per class")
    mean_a, mean_b = mean(sample_a), mean(sample_b)
    var_a = pstdev(sample_a) ** 2 * len(sample_a) / (len(sample_a) - 1)
    var_b = pstdev(sample_b) ** 2 * len(sample_b) / (len(sample_b) - 1)
    denom = math.sqrt(var_a / len(sample_a) + var_b / len(sample_b))
    if denom == 0:
        return 0.0 if mean_a == mean_b else math.inf
    return (mean_a - mean_b) / denom


def fixed_vs_random_t(curve_key: str, method: str, n: int = 15,
                      fixed_scalar: Optional[int] = None,
                      seed: int = 0xCAFE) -> float:
    """TVLA-style test: |t| of fixed-scalar vs random-scalar cycle counts."""
    rng = random.Random(seed)
    order = make_suite(curve_key).order
    if fixed_scalar is None:
        # A deliberately low-weight scalar maximises the contrast.
        fixed_scalar = (1 << 159) + 1
        if order:
            fixed_scalar %= order
    fixed = collect_traces(curve_key, method, [fixed_scalar] * n)
    rand = collect_traces(
        curve_key, method,
        [_random_scalar(rng, 160, order) for _ in range(n)],
    )
    return welch_t([t.cycles for t in fixed], [t.cycles for t in rand])


def scalar_weight_correlation(traces: Sequence[TraceSample]) -> float:
    """Pearson correlation between NAF weight and cycle count."""
    weights = [hamming_weight(naf_digits(t.scalar)) for t in traces]
    cycles = [t.cycles for t in traces]
    mw, mc = mean(weights), mean(cycles)
    cov = sum((w - mw) * (c - mc) for w, c in zip(weights, cycles))
    var_w = sum((w - mw) ** 2 for w in weights)
    var_c = sum((c - mc) ** 2 for c in cycles)
    if var_w == 0 or var_c == 0:
        return 0.0
    return cov / math.sqrt(var_w * var_c)


def leakage_report(n: int = 15, seed: int = 0x11) -> Dict[str, Dict]:
    """Per-method regularity summary used by the example and the bench."""
    cases = [
        ("weierstrass", "naf", "high-speed"),
        ("glv", "glv-jsf", "high-speed"),
        ("montgomery", "ladder", "constant-round"),
        ("weierstrass", "coz-ladder", "constant-round"),
        ("edwards", "daaa", "constant-round"),
    ]
    out: Dict[str, Dict] = {}
    for curve, method, category in cases:
        traces = random_traces(curve, method, n=n, seed=seed)
        out[f"{curve}/{method}"] = {
            "category": category,
            "regular": is_regular(traces),
            "spread": relative_spread(traces),
        }
    return out
