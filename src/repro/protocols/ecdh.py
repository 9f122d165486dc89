"""Elliptic-curve Diffie-Hellman over the reproduction's curves.

Two flavours, mirroring the paper's motivation that its methods suit ECDH
(no fixed/known base point required):

* :class:`XOnlyEcdh` — x-coordinate-only ECDH on the Montgomery curve via
  the ladder (the IoT-friendly variant: 20-byte public keys, constant-time
  scalar multiplication).
* :class:`FullPointEcdh` — classic ECDH on any Weierstraß/GLV/Edwards curve
  through a pluggable scalar-multiplication method.

Both are **hardened by default** against the fault model of DESIGN.md §7
"Fault model & countermeasures": peer inputs pass on-curve / twist /
small-order / subgroup validation, every scalar multiplication is executed
redundantly (two runs compared, the ladder additionally coherence-checked)
with bounded retry, and a run whose countermeasures keep tripping raises
:class:`~repro.faults.model.FaultDetectedError` rather than emitting a
possibly corrupted secret.  ``hardened=False`` restores the bare paths —
the baseline the fault campaigns (``python -m repro faults ecdh``) measure
against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from ..curves.montgomery import MontgomeryCurve
from ..curves.point import AffinePoint, MaybePoint
from ..curves.validate import (
    validate_montgomery_x,
    validate_public_point,
    validate_scalar,
)
from ..faults.model import FaultDetectedError
from ..scalarmult import (
    adapter_for,
    blind_scalar,
    montgomery_ladder_x,
    montgomery_ladder_x_checked,
    scalar_mult_naf,
)


@dataclass(frozen=True)
class XOnlyKeyPair:
    private: int
    public_x: int  # affine x of private * G


class XOnlyEcdh:
    """x-only ECDH on a Montgomery curve (Montgomery-ladder based).

    Hardened operation (default): peer x-coordinates are validated
    (:func:`~repro.curves.validate.validate_montgomery_x`), every derivation
    runs the coherence-checked ladder **twice** and compares the projective
    outputs (temporal redundancy — the double-execution countermeasure,
    sound against the single-transient-fault model), retrying up to
    ``max_retries`` times before raising ``FaultDetectedError``.
    :attr:`last_detection` records the countermeasure that fired during the
    most recent operation (``None`` when nothing tripped) — campaigns use
    it to attribute detections.
    """

    def __init__(self, curve: MontgomeryCurve, base: AffinePoint,
                 scalar_bits: int = 160, hardened: bool = True,
                 max_retries: int = 2):
        if not curve.is_on_curve(base):
            raise ValueError("base point is not on the curve")
        if base.x.is_zero():
            raise ValueError("base point (0, 0) has order 2")
        self.curve = curve
        self.base = base
        self.scalar_bits = scalar_bits
        self.hardened = hardened
        self.max_retries = max_retries
        #: Countermeasure fired during the last operation (or None).
        self.last_detection: Optional[str] = None

    def _ladder_x(self, k: int, x_coord: int,
                  fault_hook: Optional[Callable] = None) -> int:
        """Shared derivation core; ``fault_hook`` is the campaign seam.

        The hook is threaded into the *first* ladder execution of the
        first attempt only — modelling one transient fault per operation.
        """
        self.last_detection = None
        validate_scalar(k, bits=self.scalar_bits)
        if not self.hardened:
            point = self.curve.lift_x(x_coord)
            result = montgomery_ladder_x(self.curve, k, point,
                                         bits=self.scalar_bits,
                                         step_hook=fault_hook)
            if result.is_infinity():
                raise ValueError("derived the point at infinity; bad scalar")
            return self.curve.x_affine(result).to_int()
        point = validate_montgomery_x(self.curve, x_coord)
        error: Optional[FaultDetectedError] = None
        for attempt in range(self.max_retries + 1):
            hook = fault_hook if attempt == 0 else None
            try:
                first = montgomery_ladder_x_checked(
                    self.curve, k, point, bits=self.scalar_bits,
                    step_hook=hook)
                second = montgomery_ladder_x_checked(
                    self.curve, k, point, bits=self.scalar_bits)
            except FaultDetectedError as exc:
                self.last_detection = "ladder-coherence"
                error = exc
                continue
            if first.x * second.z == second.x * first.z:
                if first.is_infinity():
                    raise ValueError(
                        "derived the point at infinity; bad scalar")
                return self.curve.x_affine(first).to_int()
            self.last_detection = "temporal-redundancy"
            error = FaultDetectedError(
                "redundant ladder executions disagree")
        raise error

    def generate_keypair(self, rng: Optional[random.Random] = None,
                         ) -> XOnlyKeyPair:
        rng = rng or random.SystemRandom()
        private = rng.getrandbits(self.scalar_bits - 1) | (
            1 << (self.scalar_bits - 2)
        )
        public_x = self._ladder_x(private, self.base.x.to_int())
        return XOnlyKeyPair(private=private, public_x=public_x)

    def shared_secret(self, own: XOnlyKeyPair, peer_public_x: int,
                      fault_hook: Optional[Callable] = None) -> int:
        """x coordinate of (own.private * peer.private) * G."""
        return self._ladder_x(own.private, peer_public_x, fault_hook)


@dataclass(frozen=True)
class KeyPair:
    private: int
    public: AffinePoint


class FullPointEcdh:
    """Classic ECDH with a pluggable scalar-multiplication backend.

    Hardened operation (default): peer points pass
    :func:`~repro.curves.validate.validate_public_point` (on-curve, plus
    subgroup when ``order`` is known, else the Edwards/Weierstraß
    low-order coordinate test), the default backend blinds scalars
    with the group order when it is known, the derived secret is checked
    on-curve and recomputed for comparison, and exhausted retries raise
    ``FaultDetectedError``.  A custom ``mult`` backend is used as given —
    blinding composes with the *default* backend only, since a backend
    like GLV decomposes modulo the order itself.
    """

    def __init__(self, curve, base: AffinePoint, order: Optional[int] = None,
                 mult: Optional[Callable] = None, hardened: bool = True,
                 max_retries: int = 2):
        if not curve.is_on_curve(base):
            raise ValueError("base point is not on the curve")
        self.curve = curve
        self.base = base
        self.order = order
        self.hardened = hardened
        self.max_retries = max_retries
        self._mult = mult or self._default_mult
        self.last_detection: Optional[str] = None

    def _default_mult(self, k: int, point: AffinePoint) -> MaybePoint:
        if self.hardened and self.order is not None:
            k = blind_scalar(k, self.order)
        return scalar_mult_naf(adapter_for(self.curve, point), k)

    def generate_keypair(self, rng: Optional[random.Random] = None) -> KeyPair:
        rng = rng or random.SystemRandom()
        upper = self.order - 1 if self.order else 1 << 159
        private = rng.randrange(1, upper)
        public = self._mult(private, self.base)
        if public is None:
            raise ValueError("private key maps the base point to infinity")
        return KeyPair(private=private, public=public)

    def shared_secret(self, own: KeyPair,
                      peer_public: AffinePoint) -> AffinePoint:
        self.last_detection = None
        if not self.hardened:
            secret = self._mult(own.private, peer_public)
            if secret is None:
                raise ValueError("shared secret is the point at infinity")
            return secret
        validate_scalar(own.private, self.order)
        peer = validate_public_point(self.curve, peer_public, self.order)
        error: Optional[FaultDetectedError] = None
        for _attempt in range(self.max_retries + 1):
            secret = self._mult(own.private, peer)
            if secret is None:
                self.last_detection = "output-format"
                error = FaultDetectedError(
                    "scalar multiplication returned the point at infinity")
                continue
            if not self.curve.is_on_curve(secret):
                self.last_detection = "output-on-curve"
                error = FaultDetectedError("derived secret is off the curve")
                continue
            again = self._mult(own.private, peer)
            if again is not None and again.x == secret.x \
                    and again.y == secret.y:
                return secret
            self.last_detection = "temporal-redundancy"
            error = FaultDetectedError(
                "redundant scalar multiplications disagree")
        raise error
