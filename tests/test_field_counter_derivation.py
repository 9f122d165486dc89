"""Word tallies derived from op counts equal the reference routines' own.

A field op only bumps its field-op count; :class:`FieldOpCounter` computes
the word-level tallies from the counts and the field's word costs when read.  Here seeded random op
sequences (element entry, add, sub, neg, mul, sqr, mul_small, inv, int
operands and a mid-sequence ``reset()``) run on each field while a model
adds up, per op, the :class:`WordOpCounter` that the :mod:`repro.mpa`
reference routine counts on the actual operands.  ``state()``, ``words``,
``copy()``, ``delta()`` and the span path (a counter built from an op-count
delta and the field's costs) must match the model after every op.

The per-op field- and word-level state of one ECDH per curve is pinned to
the figures measured before the derivation replaced per-op charging; on
secp160r1 and GLV it is pinned together with the subgroup check their
validation no longer runs (#E = n there, see ``test_curves_cofactor.py``).
"""

import random

import pytest

from repro.curves.params import GLV_K, GLV_U, OPF_K, OPF_P, OPF_U, make_suite
from repro.curves.point import AffinePoint
from repro.field import (
    FieldOpCounter,
    FpElement,
    GenericPrimeField,
    OptimalPrimeField,
    Secp160r1Field,
)
from repro.field.counters import FIELD_OPS, WORD_OPS, op_counts
from repro.mpa import (
    WordOpCounter,
    fips_montgomery_opf,
    modadd_incomplete,
    modsub_incomplete,
    mul_product_scanning,
    to_words,
)
from repro.obs.trace import Tracer
from repro.protocols import FullPointEcdh, XOnlyEcdh

FIELDS = {
    "opf160": lambda: OptimalPrimeField(OPF_U, OPF_K, name="opf160"),
    "glv": lambda: OptimalPrimeField(GLV_U, GLV_K, name="glv"),
    "toy-w8": lambda: OptimalPrimeField(13, 8, word_bits=8, name="toy-w8"),
    "secp160r1": Secp160r1Field,
    "generic": lambda: GenericPrimeField(OPF_P, name="generic"),
}

OPS = ("from_int", "add", "sub", "neg", "mul", "sqr", "mul_small", "inv",
       "add_int")


def _tally(routine, *args):
    """Word ops *routine* counts on *args*, also when its invariant check
    raises (a toy field with p < R/2 can overflow an addition)."""
    counter = WordOpCounter()
    try:
        routine(*args, counter=counter)
    except AssertionError:
        pass
    return counter


class Model:
    """Expected counter of one field: per-op reference tallies summed."""

    def __init__(self, field):
        self.field = field
        self.reset()

    def reset(self):
        self.ops = dict.fromkeys(FIELD_OPS, 0)
        self.words = WordOpCounter()

    def state(self):
        w = self.words
        return (tuple(self.ops[k] for k in FIELD_OPS)
                + (w.mul, w.add, w.sub, w.load, w.store, w.shift))

    def _w(self, internal):
        f = self.field
        return to_words(internal, f.num_words, f.word_bits)

    def count(self, op, *internals):
        """Record one *op* on the given operand internals."""
        self.ops[op] += 1
        f = self.field
        if isinstance(f, OptimalPrimeField):
            w, p_words = f.word_bits, f.mont.p_words
            if op == "add":
                tally = _tally(modadd_incomplete, *map(self._w, internals),
                               p_words, w)
            elif op in ("sub", "neg"):
                x = internals if op == "sub" else (0,) + internals
                tally = _tally(modsub_incomplete, *map(self._w, x),
                               p_words, w)
            elif op in ("mul", "sqr"):
                x = internals if op == "mul" else internals * 2
                tally = _tally(fips_montgomery_opf, *map(self._w, x), f.mont)
            else:
                tally = WordOpCounter()
        elif isinstance(f, Secp160r1Field) and op in ("mul", "sqr"):
            x = internals if op == "mul" else internals * 2
            tally = _tally(mul_product_scanning, *map(self._w, x),
                           f.word_bits)
        else:
            tally = WordOpCounter()
        self.words = self.words + tally

    def enter(self, value):
        """``from_int``: OPFs spend one Montgomery mul on values != 0, 1."""
        f = self.field
        if isinstance(f, OptimalPrimeField) and value % f.p not in (0, 1):
            self.count("mul", value % f.p, f.mont.r2)


def _edges(field):
    """Two operands at the top of the internal range (``[0, R)`` on an
    OPF, where they make a toy field's additions overflow)."""
    if not isinstance(field, OptimalPrimeField):
        return [field.from_int(field.p - 1), field.from_int(field.p - 2)]
    r = field.mont.r
    return [FpElement(field, r - 1), FpElement(field, r - field.p)]


def _step(field, twin, model, pool, rng):
    """One random op through the public element API, mirrored on *model*
    (*twin*, a second instance of the field, maps ints uncounted)."""
    op = rng.choice(OPS)
    a, b = rng.choice(pool), rng.choice(pool)
    try:
        if op == "from_int":
            value = rng.choice([0, 1, 2, field.p - 1, rng.randrange(field.p)])
            model.enter(value)
            pool.append(field.from_int(value))
        elif op == "add_int":
            value = rng.randrange(2, field.p)
            model.enter(value)
            entered = twin.int_to_internal(value)
            model.count("add", a.internal, entered)
            pool.append(a + value)
        elif op in ("add", "sub", "mul"):
            model.count(op, a.internal, b.internal)
            pool.append({"add": a.__add__, "sub": a.__sub__,
                         "mul": a.__mul__}[op](b))
        elif op == "neg":
            model.count("neg", a.internal)
            pool.append(-a)
        elif op == "sqr":
            model.count("sqr", a.internal)
            pool.append(a.square())
        elif op == "mul_small":
            model.count("mul_small", a.internal)
            pool.append(a.mul_small(rng.randrange(1 << 16)))
        elif op == "inv":
            if a.is_zero():
                return
            model.count("inv", a.internal)
            pool.append(a.invert())
    except AssertionError:
        assert field.name == "toy-w8"  # only p < R/2 overflows an add
    del pool[2:-24]  # keep the two edge operands


@pytest.mark.parametrize("key", sorted(FIELDS))
@pytest.mark.parametrize("seed", [1, 2])
def test_derived_words_match_reference_tallies(key, seed):
    field, twin = FIELDS[key](), FIELDS[key]()
    rng = random.Random(f"{key}:{seed}")
    pool = _edges(field) + [field.from_int(rng.randrange(field.p))
                            for _ in range(4)]
    field.counter.reset()
    model = Model(field)
    snaps = []
    for i in range(400):
        if i == 200:
            field.counter.reset()
            model.reset()
            snaps = []
        _step(field, twin, model, pool, rng)
        state = field.counter.state()
        assert state == model.state(), (key, i)
        assert field.counter.words == model.words
        if rng.random() < 0.1:
            snaps.append((field.counter.copy(), op_counts(field.counter),
                          model.state()))
        for snap, counts, then in snaps[-3:]:
            assert snap.state() == then
            since = tuple(now - was for now, was in zip(state, then))
            assert field.counter.delta(snap).state() == since
            span_delta = FieldOpCounter(
                *(now - was for now, was in zip(op_counts(field.counter),
                                                counts)),
                costs=field.counter.costs)
            assert span_delta.state() == since
    if key == "generic":
        assert field.counter.words == WordOpCounter()
    else:
        assert field.counter.words.total() > 0


class TestCounterObject:
    """The op counts are the whole state; ``words`` is computed from them."""

    def test_words_are_priced_from_counts(self):
        field = FIELDS["opf160"]()
        a, b = field.from_int(3), field.from_int(5)
        field.counter.reset()
        _ = a * b
        zeros = [0] * field.num_words
        mul = _tally(fips_montgomery_opf, zeros, zeros, field.mont)
        assert mul.mul == 30  # s^2 + s
        words = field.counter.words
        assert words == mul
        words.load += 7  # a read is a fresh value, not the counter's state
        assert field.counter.words == mul
        field.counter.sqr += 1  # a sqr is priced as a mul
        assert field.counter.words == mul + mul

    def test_reset_zeroes_words_and_later_ops_fold_from_zero(self):
        field = FIELDS["secp160r1"]()
        a = field.from_int(7)
        _ = a * a
        field.counter.reset()
        assert field.counter.state() == (0,) * 13
        _ = a.square()
        assert field.counter.words.mul == 25

    def test_copy_and_delta_price_their_words(self):
        field = FIELDS["glv"]()
        zeros, p_words = [0] * field.num_words, field.mont.p_words
        mul = _tally(fips_montgomery_opf, zeros, zeros, field.mont)
        add = _tally(modadd_incomplete, zeros, zeros, p_words,
                     field.word_bits)
        a = field.from_int(9)
        _ = a * a
        snap = field.counter.copy()
        assert snap == field.counter
        _ = a * a + a
        delta = field.counter.delta(snap)
        assert delta.snapshot() == {**FieldOpCounter().snapshot(),
                                    "add": 1, "mul": 1}
        assert delta.words == add + mul
        snap.mul += 1  # the copy is independent and keeps the costs
        assert snap.words == field.counter.words.delta(add)

    def test_generic_field_words_are_zero(self):
        field = FIELDS["generic"]()
        a = field.from_int(9)
        _ = a * a + a - a
        assert field.counter.costs is None
        assert field.counter.mul > 0
        assert field.counter.words == WordOpCounter()
        assert field.counter.state()[len(FIELD_OPS):] == (0,) * 6
        assert field.counter.copy().words == WordOpCounter()
        assert field.counter.delta(FieldOpCounter()).words == WordOpCounter()

    def test_costs_are_set_before_any_op(self):
        field = FIELDS["opf160"]()
        _ = field.from_int(3)  # one counted Montgomery mul
        cost = WordOpCounter(mul=1)
        with pytest.raises(ValueError):
            field.counter.derive_words(cost, cost, cost)


def _pin_inputs(key):
    suite = make_suite(key)
    if key == "montgomery":
        proto = XOnlyEcdh(suite.curve, suite.base,
                          scalar_bits=suite.scalar_bits)
    else:
        proto = FullPointEcdh(suite.curve, suite.base, suite.order)
    rng = random.Random(f"pin:{key}")
    own = proto.generate_keypair(rng)
    peer = proto.generate_keypair(rng)
    arg = peer.public_x if key == "montgomery" else peer.public
    return suite, proto, own, arg


#: ``FieldOpCounter.state()`` of one hardened ECDH per curve, measured
#: with per-op word charging and the subgroup check on every curve.
PINNED_ECDH_STATE = {
    "edwards": (1344, 1546, 314, 1748, 1256, 0, 2,
                90120, 220580, 52780, 291380, 78100, 30040),
    "montgomery": (1616, 1606, 1, 1628, 1287, 320, 8,
                   87450, 213625, 53345, 286165, 77495, 29150),
    "weierstrass": (3276, 1912, 2, 2142, 1598, 0, 2,
                    112200, 278620, 79730, 398800, 115250, 37400),
    "secp160r1": (4300, 3224, 2, 3161, 2302, 0, 207,
                  136575, 273150, 0, 273150, 54630, 49167),
    "glv": (3918, 2896, 2, 2978, 2318, 0, 212,
            158880, 392810, 106630, 548720, 155200, 52960),
}


@pytest.mark.parametrize("key", sorted(PINNED_ECDH_STATE))
def test_ecdh_state_pinned(key):
    """Edwards, Montgomery and Weierstraß count exactly as before; on
    secp160r1 and GLV the ECDH plus the skipped ``n * P`` check does."""
    suite, proto, own, arg = _pin_inputs(key)
    suite.field.counter.reset()
    proto.shared_secret(own, arg)
    if suite.cofactor == 1:
        assert suite.field.counter.state() != PINNED_ECDH_STATE[key]
        peer = AffinePoint(arg.x, arg.y)
        assert suite.curve.affine_scalar_mult(suite.order, peer) is None
    assert suite.field.counter.state() == PINNED_ECDH_STATE[key]


def test_span_attrs_match_state_deltas():
    """Spans record the op counts at open and price the count delta at
    close, memoized per (delta, costs); the attrs equal the state() delta,
    span after span."""
    field = FIELDS["opf160"]()
    a, b = field.from_int(3), field.from_int(5)
    tracer = Tracer(cost_fn=lambda delta: delta.mul + delta.words.mul)
    expected = []
    with tracer:
        for i in range(4):
            before = field.counter.state()
            with tracer.span("op", counter=field.counter):
                _ = a * b + a - b
                if i == 2:
                    _ = -a  # a different delta, priced afresh
            after = field.counter.state()
            expected.append([x - y for x, y in zip(after, before)])
    for span, delta in zip(tracer.roots, expected):
        ops, words = delta[:7], delta[7:]
        assert span.attrs["field_ops"] == {
            k: d for k, d in zip(FIELD_OPS, ops) if d}
        assert span.attrs["word_ops"] == {
            k: d for k, d in zip(WORD_OPS, words) if d}
        assert span.attrs["cycles_est"] == ops[3] + words[0]
    first, second = tracer.roots[:2]
    assert first.attrs["word_ops"] == second.attrs["word_ops"]
    assert first.attrs["word_ops"] is not second.attrs["word_ops"]
