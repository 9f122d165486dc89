"""Scalar-multiplication algorithms (the paper's Table II methods).

High-speed methods: NAF double-and-add (:func:`scalar_mult_naf`), the
x-only Montgomery ladder (:func:`montgomery_ladder_x`) and the GLV
endomorphism method (:func:`glv_scalar_mult`).

Leakage-reduced ("constant round") methods: double-and-add-always
(:func:`scalar_mult_daaa`), the x-only ladder again, and the co-Z ladder
for Weierstraß-form curves (:func:`coz_ladder`).
"""

from .adapters import EdwardsAdapter, GroupAdapter, WeierstrassAdapter, adapter_for
from .algorithms import scalar_mult_binary, scalar_mult_daaa, scalar_mult_naf
from .blinding import blind_scalar, blinding_factor
from .fixed_base import (
    FixedBaseCache,
    FixedBaseTable,
    comb_table_ram_bytes,
    scalar_mult_fixed_base,
)
from .glv_mult import glv_precompute, glv_scalar_mult, shamir_scalar_mult
from .ladder import (
    coz_ladder,
    coz_ladder_xy,
    dblu,
    ladder_coherence_check,
    montgomery_ladder_full,
    montgomery_ladder_x,
    montgomery_ladder_x_checked,
    zaddc,
    zaddc_xy,
    zaddu,
    zaddu_xy,
)
from .window import (
    batch_invert,
    precompute_odd_multiples,
    scalar_mult_wnaf,
    wnaf_table_ram_bytes,
)
from .recoding import (
    binary_digits,
    hamming_weight,
    jsf_digits,
    joint_weight,
    naf_digits,
    naf_value,
    width_w_naf_digits,
)

__all__ = [
    "EdwardsAdapter",
    "GroupAdapter",
    "WeierstrassAdapter",
    "adapter_for",
    "binary_digits",
    "blind_scalar",
    "blinding_factor",
    "comb_table_ram_bytes",
    "coz_ladder",
    "coz_ladder_xy",
    "dblu",
    "FixedBaseCache",
    "FixedBaseTable",
    "glv_precompute",
    "glv_scalar_mult",
    "hamming_weight",
    "jsf_digits",
    "joint_weight",
    "ladder_coherence_check",
    "montgomery_ladder_full",
    "montgomery_ladder_x",
    "montgomery_ladder_x_checked",
    "naf_digits",
    "naf_value",
    "scalar_mult_binary",
    "scalar_mult_daaa",
    "scalar_mult_fixed_base",
    "scalar_mult_naf",
    "scalar_mult_wnaf",
    "batch_invert",
    "precompute_odd_multiples",
    "wnaf_table_ram_bytes",
    "shamir_scalar_mult",
    "width_w_naf_digits",
    "zaddc",
    "zaddc_xy",
    "zaddu",
    "zaddu_xy",
]
