"""The benchmark's own tests: seeded inputs, the percentile rule, the
normalization arithmetic, output verification, and a smoke of each
workload.  Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import calib
import layers
import measure
import refmath
import run
from conftest import BENCH, ROOT

REF_MS = 1.0


def _cal():
    return calib.Calibrator(REF_MS)


# -- seeded generation -------------------------------------------------------


def test_serve_stream_is_a_function_of_the_seed():
    import w_serve

    a = w_serve.OpStream(7, {}), w_serve.OpStream(7, {})
    other = w_serve.OpStream(8, {})
    first = [a[0].op(i) for i in range(50)]
    assert first == [a[1].op(i) for i in range(50)]
    assert first != [other.op(i) for i in range(50)]
    kinds = {op["op"] for op in first}
    assert {"keygen", "ecdsa_sign"} <= kinds


def test_varbase_and_ladder_inputs_are_functions_of_the_seed():
    import w_iss
    import w_varbase

    def inputs(cls, seed):
        workload = cls(ROOT, seed, REF_MS, False)
        return [workload.op_input(i) for i in range(10)]

    for cls in (w_varbase.DirectVarbase, w_iss.IssLadder):
        assert inputs(cls, 3) == inputs(cls, 3)
        assert inputs(cls, 3) != inputs(cls, 4)
    curves = [key for key, _ in inputs(w_varbase.DirectVarbase, 3)[:5]]
    assert sorted(curves) == sorted(w_varbase.CURVES)


# -- the percentile rule and the normalization arithmetic ---------------------


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 101))  # 1..100
    value, percentile, n = measure.tail(values)
    assert (value, percentile, n) == (90, 90.0, 100)
    assert sum(v > value for v in values) == 10
    value, percentile, n = measure.tail(list(range(1, 1001)))
    assert (value, percentile) == (990, 99.0)


def test_tail_without_enough_samples_falls_back_to_the_minimum():
    assert measure.tail([5.0, 3.0, 4.0]) == (3.0, 0.0, 3)


def test_normalization_divides_by_calibration_and_scales_to_reference():
    assert calib.normalize_factor(2.0, [1.0, 1.0, 1.0]) == 2.0
    assert calib.normalize_factor(1.0, [4.0, 2.0, 3.0]) == pytest.approx(
        1 / 3)
    cal = calib.Calibrator(1.5)
    cal.readings = [1.0, 2.0, 3.0]
    assert cal.factor(0) == pytest.approx(1.5 / 1.5)  # mean of 1 and 2
    assert cal.factor(1, 2) == pytest.approx(1.5 / 2.5)
    assert cal.run_factor() == pytest.approx(1.5 / 2.0)
    phase = measure.Phase()
    phase.add_block([10.0, 20.0], 0.03, 0.5)
    assert phase.lat_ms == [5.0, 10.0]
    assert phase.raw_lat_ms == [10.0, 20.0]
    assert phase.busy_s == pytest.approx(0.015)
    assert phase.ops_per_s() == pytest.approx(2 / 0.015)


def test_calibration_kernel_is_fixed_work():
    first, second = calib.CalibrationKernel(), calib.CalibrationKernel()
    assert first() == second()
    cal = _cal()
    cal.burst()
    assert len(cal.rounds) == calib.BURST_ROUNDS
    assert cal.readings == [calib.median(cal.rounds)]
    spread_over = calib.Calibrator(1.0, cpus=sorted(os.sched_getaffinity(0)))
    spread_over.burst()
    assert len(spread_over.readings) == 1 and spread_over.calib_ms() > 0


# -- verification catches corrupted results ----------------------------------


def test_serve_verification_flags_corrupted_outputs():
    import w_serve
    from repro.curves.params import make_suite
    from repro.protocols import Ecdsa

    workload = w_serve.ServeNamed(ROOT, 5, REF_MS, False)
    seed = "5-0"
    private = refmath.keygen_scalar(seed, workload.n)
    public = refmath.mul_doublings(workload.ref, private, workload.g_table)
    keygen = {"id": 0, "op": "keygen", "curve": "secp160r1",
              "params": {"seed": seed}}
    good = {"ok": True, "result": {
        "private": format(private, "x"),
        "public": {"x": format(public[0], "x"), "y": format(public[1], "x")}}}
    bad = json.loads(json.dumps(good))
    bad["result"]["public"]["x"] = format(public[0] + 1, "x")

    key_private = 0x1234567890ABCDEF
    suite = make_suite("secp160r1")
    signature = Ecdsa(suite.curve, suite.base, suite.order).sign(
        key_private, b"\x01\x02")
    key_public = refmath.mul_doublings(workload.ref, key_private,
                                       workload.g_table)
    workload.history = {("alpha", "sig-a"): {
        1: (key_public, float("-inf"), float("-inf"))}}
    sign = {"id": 1, "op": "ecdsa_sign", "curve": "secp160r1",
            "tenant": "alpha", "params": {"key": "sig-a", "msg": "0102"}}
    sig_good = {"ok": True, "result": {"r": format(signature.r, "x"),
                                       "s": format(signature.s, "x")}}
    sig_bad = {"ok": True, "result": {"r": format(signature.r, "x"),
                                      "s": format(signature.s ^ 1, "x")}}

    def records(*pairs):
        return [(i, req, reply, 1.0, 2.0, 0, None)
                for i, (req, reply) in enumerate(pairs)]

    assert workload._verify(records((keygen, good), (sign, sig_good))) == []
    assert len(workload._verify(records((keygen, bad), (sign, sig_good)))) \
        == 1
    assert len(workload._verify(records((keygen, good), (sign, sig_bad)))) \
        == 1
    refused = {"ok": False, "error": {"type": "QuotaExceeded",
                                      "message": "over"}}
    assert len(workload._verify(records((keygen, refused)))) == 1


def test_varbase_verification_flags_a_corrupted_point():
    import w_varbase

    workload = w_varbase.DirectVarbase(ROOT, 9, REF_MS, False)
    state = w_varbase.build(9)
    key, _ = workload.op_input(0)
    ms, ok, _ = workload.run_op(state, 0)
    assert ok and ms > 0

    suite, proto, own = state[key]

    class Corrupt:
        def shared_secret(self, own, peer):
            out = proto.shared_secret(own, peer)
            if isinstance(out, int):
                return out ^ 1
            return type(out)(out.y, out.x)

    state[key] = (suite, Corrupt(), own)
    assert workload.run_op(state, 0)[1] is False


def test_ladder_verification_flags_a_corrupted_result():
    import w_iss

    workload = w_iss.IssLadder(ROOT, 9, REF_MS, False)

    class Core:
        instructions_retired = 1

    class Kernel:
        core = Core()

        def __init__(self, corrupt):
            self.corrupt = corrupt

        def run(self, k, x):
            from repro.curves.point import AffinePoint
            from repro.scalarmult import montgomery_ladder_x

            host = workload.host
            point = host.curve.lift_x(x)
            xz = montgomery_ladder_x(host.curve, k, AffinePoint(
                point.x, point.y), bits=160)
            x_out = xz.x.to_int() + (1 if self.corrupt else 0)
            return x_out, xz.z.to_int(), 7

    assert workload.run_op(Kernel(False), 0)[1] is True
    assert workload.run_op(Kernel(True), 0)[1] is False


# -- the contract's files agree with the code --------------------------------


def test_benchmark_json_matches_the_metric_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == layers.CATALOGUE
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


# -- smoke runs --------------------------------------------------------------


def _run(cwd, workload, trace, seconds="2"):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--calib-ref-ms", str(REF_MS), "--workload", workload,
         "--seed", "1", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_each_workload_without_failures(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    names = set(result["metrics"])
    if trace:
        assert names == set(layers.CATALOGUE)
    else:
        assert names == set(run.END_TO_END)
        assert result["metrics"]["ok_frac"]["value"] == 1.0
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(str(tmp_path), "direct_varbase", 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
