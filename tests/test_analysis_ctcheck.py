"""The constant-time checker end to end: verdicts, determinism, engine
parity, CLI exit codes, JSONL export, and the cross-check against the
black-box leakage statistics (DESIGN.md §9)."""

import json

import pytest

from repro.analysis.ctcheck import TARGETS, check_target, main
from repro.analysis.leakage import is_regular, random_traces
from repro.obs import ctcheck_events, ctcheck_to_jsonl

MODES = ("ca", "fast", "ise")


class TestVerdicts:
    @pytest.mark.parametrize("mode", MODES)
    def test_mul_clean_in_every_mode(self, mode):
        report = check_target("mul", mode)
        assert report["verdict"] == "clean"
        assert report["violations"] == []
        assert report["value_ok"]

    @pytest.mark.parametrize("mode", MODES)
    def test_ladder_clean_in_every_mode(self, mode):
        report = check_target("ladder", mode)
        assert report["verdict"] == "clean"
        assert report["value_ok"]
        assert report["secret_bytes"] == 2

    @pytest.mark.parametrize("target", ["add", "sub"])
    def test_addsub_clean(self, target):
        report = check_target(target, "ca")
        assert report["verdict"] == "clean"

    def test_daaa_clean(self):
        report = check_target("daaa", "ise")
        assert report["verdict"] == "clean"
        assert report["value_ok"]

    @pytest.mark.parametrize("mode", MODES)
    def test_naf_flagged_with_routine_attribution(self, mode):
        report = check_target("naf", mode)
        assert report["verdict"] == "flagged"
        assert report["value_ok"]  # leaky, but still correct
        assert report["branch_sites"] >= 1
        for violation in report["violations"]:
            assert violation["kind"] == "branch"
            assert violation["routine"] == "digit_step"
            assert violation["pc"] > 0
        instructions = {v["instruction"].split()[0]
                        for v in report["violations"]}
        assert "BRNE" in instructions

    def test_naf_cycle_skew_reported(self):
        report = check_target("naf", "ise")
        assert all(v["cycle_skew"] >= 1 for v in report["violations"])


class TestDeterminismAndParity:
    def test_reruns_are_byte_identical(self):
        first = [check_target("naf", "ise"), check_target("mul", "ise")]
        second = [check_target("naf", "ise"), check_target("mul", "ise")]
        assert ctcheck_to_jsonl(first) == ctcheck_to_jsonl(second)

    @pytest.mark.parametrize("target,mode", [
        ("naf", "ise"), ("ladder", "ise"), ("mul", "ca"),
    ])
    def test_engines_agree_on_everything_but_the_label(self, target, mode):
        # The default core runs its taint-free stretches in basic-block
        # strides; the reference core steps every instruction.
        default = check_target(target, mode)
        reference = check_target(target, mode, engine="reference")
        assert default.pop("engine") == "trace"
        assert reference.pop("engine") == "reference"
        assert default == reference


class TestJsonlExport:
    def test_stream_shape(self):
        reports = [check_target("naf", "ise")]
        lines = ctcheck_to_jsonl(reports).splitlines()
        events = [json.loads(line) for line in lines]
        assert events[0]["type"] == "ctcheck"
        assert events[0]["verdict"] == "flagged"
        assert "violations" not in events[0]  # re-emitted as own lines
        tail = events[1:]
        assert tail and all(e["type"] == "ctcheck_violation" for e in tail)
        assert all(e["target"] == "naf" and e["mode"] == "ise"
                   for e in tail)

    def test_clean_report_emits_single_line(self):
        events = ctcheck_events([check_target("add", "fast")])
        assert len(events) == 1


class TestCli:
    def test_targets_registry(self):
        assert set(TARGETS) == {"mul", "add", "sub", "ladder", "daaa",
                                "naf", "scalarmult"}

    def test_expect_clean_passes_for_mul(self, capsys):
        assert main(["mul", "--mode", "ise", "--expect", "clean"]) == 0
        assert "CLEAN" in capsys.readouterr().out

    def test_expect_clean_fails_for_naf(self, capsys):
        assert main(["naf", "--mode", "ise", "--expect", "clean"]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_expect_flagged_passes_for_naf(self):
        assert main(["naf", "--mode", "ise", "--expect", "flagged"]) == 0

    def test_jsonl_to_file(self, tmp_path, capsys):
        out = tmp_path / "ct.jsonl"
        assert main(["add", "--mode", "fast", "--format", "jsonl",
                     "--out", str(out)]) == 0
        events = [json.loads(line)
                  for line in out.read_text().splitlines()]
        assert events[0]["type"] == "ctcheck"
        assert capsys.readouterr().out == ""

    def test_check_gate(self, capsys):
        assert main(["daaa", "--mode", "ise", "--check",
                     "--expect", "clean"]) == 0
        assert "check ok" in capsys.readouterr().err


class TestLeakageCrossCheck:
    """The taint verdicts and the black-box trace statistics must tell
    one coherent story (EXPERIMENTS.md 'Constant-time verification')."""

    def test_flagged_naf_is_also_trace_irregular(self):
        assert check_target("naf", "ise")["verdict"] == "flagged"
        traces = random_traces("weierstrass", "naf", n=6, seed=0x11)
        assert not is_regular(traces)

    def test_clean_ladder_is_also_trace_regular(self):
        assert check_target("ladder", "ise")["verdict"] == "clean"
        traces = random_traces("montgomery", "ladder", n=6, seed=0x11)
        assert is_regular(traces)

    def test_clean_daaa_is_also_trace_regular(self):
        assert check_target("daaa", "ise")["verdict"] == "clean"
        traces = random_traces("edwards", "daaa", n=6, seed=0x11)
        assert is_regular(traces)
