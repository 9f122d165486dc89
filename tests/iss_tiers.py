"""The three ISS execution tiers, as the differential tests drive them.

``AvrCore(engine=...)`` takes two values: ``"trace"`` (the default
superblock dispatcher) and ``"reference"`` (the ``step()`` interpreter).
The basic-block :class:`~repro.avr.engine.FastEngine` is the dispatcher's
internal rung, not a selectable engine; :func:`pin` routes a core's
:meth:`~repro.avr.core.AvrCore.run` straight to it, so every parity test
keeps holding all three tiers equal to each other.
"""

from repro.avr import AvrCore, ProgramMemory

#: Tier names, reference first.
TIERS = ("reference", "fast", "trace")


def engine_for(tier: str) -> str:
    """The ``engine=`` value a core running *tier* is built with."""
    return "reference" if tier == "reference" else "trace"


def pin(core: AvrCore, tier: str) -> AvrCore:
    """Make ``core.run()`` execute on *tier*; returns *core*.

    For ``"fast"`` the core's own basic-block engine stands in for the
    superblock dispatcher that ``run()`` calls, so the rest of ``run()``
    — the profiler's final fold — is the library's own.
    """
    if tier == "fast":
        core._trace_engine = core.fast_engine
    return core


def make_core(tier: str, **kwargs) -> AvrCore:
    """A fresh core on an empty program, pinned to *tier*."""
    return pin(AvrCore(ProgramMemory(), engine=engine_for(tier), **kwargs),
               tier)


def build(cls, *args, tier: str, **kwargs):
    """A kernel wrapper (``KernelRunner``, ``LadderKernel``, ...) whose
    core runs on *tier*."""
    obj = cls(*args, engine=engine_for(tier), **kwargs)
    pin(obj.core, tier)
    return obj
