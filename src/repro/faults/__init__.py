"""Deterministic fault injection (DESIGN.md §7 "Fault model & countermeasures").

Three layers, lowest first:

* :mod:`repro.faults.model` — the fault taxonomy: seeded
  ``(cycle, target, kind)`` :class:`FaultSpec` triples and the
  :class:`FaultDetectedError` contract hardened code signals with.
* :mod:`repro.faults.injector` — applies specs to a running
  :class:`~repro.avr.core.AvrCore`, engine-independently: identical
  fault placement under the reference interpreter and the compiled
  strides of a default core.
* :mod:`repro.faults.pyfaults` — the same adversary against the Python
  algorithms (ladder-state flips, corrupted scalar-mult backends).

Campaigns over these live in :mod:`repro.analysis.faults`
(``python -m repro faults``).
"""

from .injector import AppliedFault, FaultInjector
from .model import (
    FAULT_KINDS,
    FAULT_TARGETS,
    FaultDetectedError,
    FaultSpec,
    generate_faults,
)
from .pyfaults import (
    FaultyMult,
    LadderFault,
    flip_element,
    generate_ladder_faults,
    generate_mult_faults,
)

__all__ = [
    "AppliedFault",
    "FAULT_KINDS",
    "FAULT_TARGETS",
    "FaultDetectedError",
    "FaultInjector",
    "FaultSpec",
    "FaultyMult",
    "LadderFault",
    "flip_element",
    "generate_faults",
    "generate_ladder_faults",
    "generate_mult_faults",
]
