"""Minimal affine reference arithmetic the benchmark checks outputs with.

Plain integers modulo p, one field inversion per group operation, left-to-
right double-and-add.  Deliberately independent of the program's field,
curve and scalar-multiplication code: only the curve constants are shared.
It is fast enough to check every operation (an inversion is a C-level
``pow``), and to derive seeded peer points and base points as inputs.

A point is an ``(x, y)`` tuple; ``None`` is the point at infinity (the
Edwards identity is the affine point ``(0, 1)``).
"""

from __future__ import annotations

import hashlib
from typing import Optional, Tuple

Point = Optional[Tuple[int, int]]


class ShortWeierstrass:
    """y^2 = x^3 + a x + b over GF(p)."""

    def __init__(self, p: int, a: int, b: int):
        self.p, self.a, self.b = p, a % p, b % p

    def on_curve(self, pt: Point) -> bool:
        if pt is None:
            return True
        x, y = pt
        p = self.p
        return (y * y - (x * x * x + self.a * x + self.b)) % p == 0

    def add(self, p1: Point, p2: Point) -> Point:
        if p1 is None:
            return p2
        if p2 is None:
            return p1
        p = self.p
        (x1, y1), (x2, y2) = p1, p2
        if x1 == x2:
            if (y1 + y2) % p == 0:
                return None
            lam = (3 * x1 * x1 + self.a) * pow(2 * y1, -1, p) % p
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (lam * lam - x1 - x2) % p
        return x3, (lam * (x1 - x3) - y1) % p

    def neg(self, pt: Point) -> Point:
        return None if pt is None else (pt[0], (-pt[1]) % self.p)

    def mul(self, k: int, pt: Point) -> Point:
        acc: Point = None
        for bit in bin(k)[2:] if k > 0 else "":
            acc = self.add(acc, acc)
            if bit == "1":
                acc = self.add(acc, pt)
        return acc


class TwistedEdwards:
    """a x^2 + y^2 = 1 + d x^2 y^2 over GF(p) (complete: d a non-square)."""

    IDENTITY = (0, 1)

    def __init__(self, p: int, a: int, d: int):
        self.p, self.a, self.d = p, a % p, d % p

    def on_curve(self, pt: Point) -> bool:
        x, y = pt
        p = self.p
        return (self.a * x * x + y * y - 1 - self.d * x * x * y * y) % p == 0

    def add(self, p1: Point, p2: Point) -> Point:
        p = self.p
        (x1, y1), (x2, y2) = p1, p2
        t = self.d * x1 * x2 * y1 * y2 % p
        x3 = (x1 * y2 + y1 * x2) * pow(1 + t, -1, p) % p
        y3 = (y1 * y2 - self.a * x1 * x2) * pow(1 - t, -1, p) % p
        return x3, y3

    def mul(self, k: int, pt: Point) -> Point:
        acc: Point = self.IDENTITY
        for bit in bin(k)[2:]:
            acc = self.add(acc, acc)
            if bit == "1":
                acc = self.add(acc, pt)
        return acc


class Montgomery:
    """B y^2 = x^3 + A x^2 + x over GF(p)."""

    def __init__(self, p: int, a: int, b: int):
        self.p, self.A, self.B = p, a % p, b % p

    def on_curve(self, pt: Point) -> bool:
        if pt is None:
            return True
        x, y = pt
        p = self.p
        return (self.B * y * y - (x * x * x + self.A * x * x + x)) % p == 0

    def add(self, p1: Point, p2: Point) -> Point:
        if p1 is None:
            return p2
        if p2 is None:
            return p1
        p = self.p
        (x1, y1), (x2, y2) = p1, p2
        if x1 == x2:
            if (y1 + y2) % p == 0:
                return None
            lam = ((3 * x1 * x1 + 2 * self.A * x1 + 1)
                   * pow(2 * self.B * y1, -1, p) % p)
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (self.B * lam * lam - self.A - x1 - x2) % p
        return x3, (lam * (x1 - x3) - y1) % p

    def mul(self, k: int, pt: Point) -> Point:
        acc: Point = None
        for bit in bin(k)[2:] if k > 0 else "":
            acc = self.add(acc, acc)
            if bit == "1":
                acc = self.add(acc, pt)
        return acc


def doublings(curve, pt: Point, bits: int = 161) -> list:
    """``[pt, 2 pt, 4 pt, ...]``: a fixed point's precomputed doublings."""
    table = [pt]
    for _ in range(bits - 1):
        table.append(curve.add(table[-1], table[-1]))
    return table


def mul_doublings(curve, k: int, table: list) -> Point:
    """k * pt from :func:`doublings` of pt: one affine addition per set
    bit of k (right-to-left double-and-add with the doublings done
    once)."""
    acc: Point = getattr(curve, "IDENTITY", None)
    i = 0
    while k:
        if k & 1:
            acc = curve.add(acc, table[i])
        k >>= 1
        i += 1
    return acc


def _bits_to_int(digest: bytes, order: int) -> int:
    value = int.from_bytes(digest, "big")
    return value >> max(0, 8 * len(digest) - order.bit_length())


def ecdsa_verify(curve: ShortWeierstrass, base: list, order: int,
                 public: list, message: bytes, r: int, s: int) -> bool:
    """Textbook ECDSA verification with a SHA-256 digest truncated to the
    order's bit length; *base* and *public* are :func:`doublings`."""
    if not (1 <= r < order and 1 <= s < order):
        return False
    if public[0] is None or not curve.on_curve(public[0]):
        return False
    e = _bits_to_int(hashlib.sha256(message).digest(), order) % order
    w = pow(s, -1, order)
    point = curve.add(mul_doublings(curve, e * w % order, base),
                      mul_doublings(curve, r * w % order, public))
    return point is not None and point[0] % order == r


def schnorr_verify(curve: ShortWeierstrass, base: list, order: int,
                   public: list, message: bytes, e: int, s: int) -> bool:
    """Schnorr verification: R' = sG - eP, accept iff
    SHA-256(x(R') || y(R') || m) mod n == e, coordinates big-endian in
    the byte width of max(n, p); *base* and *public* are
    :func:`doublings`."""
    if not (0 <= e < order and 0 <= s < order):
        return False
    if public[0] is None or not curve.on_curve(public[0]):
        return False
    commitment = curve.add(mul_doublings(curve, s, base),
                           curve.neg(mul_doublings(curve, e, public)))
    if commitment is None:
        return False
    size = (max(order, curve.p).bit_length() + 7) // 8
    payload = (commitment[0].to_bytes(size, "big")
               + commitment[1].to_bytes(size, "big") + message)
    return int.from_bytes(hashlib.sha256(payload).digest(), "big") % order == e


def keygen_scalar(seed: str, order: int) -> int:
    """The served ``keygen`` op's documented derivation: double SHA-256
    of ``"repro-serve-keygen:" + seed``, mapped into [1, order - 1]."""
    digest = hashlib.sha256(b"repro-serve-keygen:" + seed.encode()).digest()
    digest += hashlib.sha256(digest).digest()
    return 1 + int.from_bytes(digest, "big") % (order - 1)
