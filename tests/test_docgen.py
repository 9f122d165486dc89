"""The generated API reference: coverage, determinism, link checking."""

from pathlib import Path

import pytest

from repro.docgen import (
    PACKAGES,
    check_links,
    coverage_gaps,
    discover_packages,
    generate_all,
    main,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestGeneration:
    def test_one_page_per_package_plus_index(self):
        pages = generate_all()
        assert set(pages) == {f"{p}.md" for p in PACKAGES} | {"index.md"}

    def test_generation_is_deterministic(self):
        assert generate_all() == generate_all()

    def test_pages_carry_the_generated_marker_and_backlink(self):
        pages = generate_all()
        for name, content in pages.items():
            assert "Generated by `python -m repro docs`" in content
            if name != "index.md":
                assert "(index.md)" in content

    def test_index_links_every_package_page(self):
        index = generate_all()["index.md"]
        for package in PACKAGES:
            assert f"({package}.md)" in index

    def test_taint_api_is_documented(self):
        avr = generate_all()["avr.md"]
        assert "TaintTracker" in avr
        assert "repro.avr.taint" in avr

    def test_serve_shard_is_documented(self):
        pages = generate_all()
        assert "repro.serve.shard" in pages["serve.md"]
        assert "ShardCluster" in pages["serve.md"]


class TestCoverageGate:
    def test_every_package_on_disk_is_documented(self):
        assert coverage_gaps() == []
        assert set(discover_packages()) == set(PACKAGES)

    def test_missing_package_is_reported_as_a_gap(self):
        documented = tuple(p for p in PACKAGES if p != "serve")
        assert coverage_gaps(documented=documented) == ["serve"]

    def test_generate_all_fails_on_a_gap(self, monkeypatch):
        import repro.docgen as docgen
        monkeypatch.setattr(
            docgen, "PACKAGES",
            tuple(p for p in PACKAGES if p != "serve"))
        with pytest.raises(ValueError, match="repro.serve"):
            generate_all()

    def test_main_turns_the_gap_into_exit_1(self, monkeypatch, capsys,
                                            tmp_path):
        import repro.docgen as docgen
        monkeypatch.setattr(
            docgen, "PACKAGES",
            tuple(p for p in PACKAGES if p != "obs"))
        assert main(["--out-dir", str(tmp_path)]) == 1
        assert "repro.obs" in capsys.readouterr().err


class TestGuides:
    def test_index_links_the_operations_guide(self):
        index = generate_all()["index.md"]
        assert "## Guides" in index
        assert "(operations.md)" in index

    def test_operations_guide_exists_and_links_resolve(self):
        guide = REPO_ROOT / "docs" / "operations.md"
        assert guide.exists()
        assert check_links([guide]) == []


class TestLinkChecker:
    def test_detects_broken_relative_links(self, tmp_path):
        doc = tmp_path / "page.md"
        doc.write_text("see [gone](missing.md) and [ok](page.md)")
        failures = check_links([doc])
        assert len(failures) == 1 and "missing.md" in failures[0]

    def test_ignores_external_links(self, tmp_path):
        doc = tmp_path / "page.md"
        doc.write_text("[x](https://example.com/y) [a](#anchor)")
        assert check_links([doc]) == []


class TestCommittedDocs:
    def test_committed_pages_are_current(self, capsys):
        """`make docs-check` as a test: the docs/ tree in the repo must
        match a fresh generation and contain no broken links."""
        assert main(["--check", "--out-dir",
                     str(REPO_ROOT / "docs")]) == 0
        assert "docs check ok" in capsys.readouterr().out
