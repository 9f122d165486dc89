"""API-reference generator: ``python -m repro docs``.

Emits one markdown page per package under ``docs/`` — a module index
listing every public class and function with its signature and summary
line — plus ``docs/index.md`` tying the pages to the narrative docs
(README, DESIGN.md, EXPERIMENTS.md, ROADMAP.md).  Everything is derived
by importing the packages and reading docstrings, so the reference can
never drift further than one ``make docs`` from the code.

Output is deterministic (sorted iteration, no timestamps, memory
addresses scrubbed from reprs), which makes ``--check`` a cheap CI
gate: it regenerates every page in memory and fails if the committed
files differ, then link-checks all relative markdown links in ``docs/``
and the top-level narrative documents.  Both modes also fail when a
subpackage exists on disk but is missing from :data:`PACKAGES`
(:func:`coverage_gaps`), so a new package cannot ship undocumented.
Hand-written guides (:data:`_GUIDES`) are indexed and link-checked but
never overwritten.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Documented packages, one generated page each (order = index order).
PACKAGES = (
    "avr",
    "field",
    "mpa",
    "curves",
    "scalarmult",
    "kernels",
    "model",
    "protocols",
    "analysis",
    "faults",
    "obs",
    "serve",
)

#: Narrative documents the index links out to (path relative to docs/).
_NARRATIVE = (
    ("../README.md", "README", "orientation and quick-start commands"),
    ("../DESIGN.md", "DESIGN", "architecture notes, one section per "
                               "subsystem"),
    ("../EXPERIMENTS.md", "EXPERIMENTS", "measured results vs the paper"),
    ("../ROADMAP.md", "ROADMAP", "north star and open items"),
)

#: Hand-written guides living in docs/ (not generated, but indexed and
#: link-checked like everything else).
_GUIDES = (
    ("operations.md", "Operator's guide",
     "running the ECC service in production: scale-out, capacity "
     "planning, overload, telemetry"),
    ("tenancy.md", "Tenancy guide",
     "multi-tenant named keys: lifecycle, auth tokens, quotas and "
     "shed behaviour, rotation runbook, the key journal"),
)

_HEADER = ("<!-- Generated by `python -m repro docs`. Do not edit by "
           "hand; regenerate with `make docs`. -->")


def _scrub(text: str) -> str:
    """Drop memory addresses so reprs in defaults stay deterministic."""
    return re.sub(r" at 0x[0-9a-fA-F]+", "", text)


def _summary_line(doc: Optional[str]) -> str:
    if not doc:
        return ""
    for line in doc.strip().splitlines():
        line = line.strip()
        if line:
            return _scrub(line)
    return ""


def _first_paragraph(doc: Optional[str]) -> str:
    if not doc:
        return ""
    paragraph: List[str] = []
    for line in doc.strip().splitlines():
        if not line.strip():
            break
        paragraph.append(line.strip())
    return _scrub(" ".join(paragraph))


def _signature(obj) -> str:
    try:
        return _scrub(str(inspect.signature(obj)))
    except (TypeError, ValueError):
        return "(...)"


def _module_entries(module) -> List[str]:
    """Markdown bullets for the public classes/functions of *module*."""
    classes: List[Tuple[str, str]] = []
    functions: List[Tuple[str, str]] = []
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exports are documented where they are defined
        if inspect.isclass(obj):
            classes.append((name, _summary_line(obj.__doc__)))
        elif inspect.isfunction(obj):
            functions.append((f"{name}{_signature(obj)}",
                              _summary_line(obj.__doc__)))
    bullets = []
    for label, summary in classes:
        suffix = f" — {summary}" if summary else ""
        bullets.append(f"- class `{label}`{suffix}")
    for label, summary in functions:
        suffix = f" — {summary}" if summary else ""
        bullets.append(f"- `{label}`{suffix}")
    return bullets


def render_package(package: str) -> str:
    """The full markdown page for ``repro.<package>``."""
    full = f"repro.{package}"
    pkg = importlib.import_module(full)
    lines = [_HEADER, "", f"# `{full}`", ""]
    intro = _first_paragraph(pkg.__doc__)
    if intro:
        lines += [intro, ""]
    exported = sorted(getattr(pkg, "__all__", ()))
    if exported:
        names = ", ".join(f"`{name}`" for name in exported)
        lines += [f"**Package exports** (`from {full} import …`): "
                  f"{names}", ""]
    module_names = sorted(
        info.name for info in pkgutil.iter_modules(pkg.__path__)
        if not info.name.startswith("_"))
    for name in module_names:
        module = importlib.import_module(f"{full}.{name}")
        lines += [f"## `{full}.{name}`", ""]
        summary = _first_paragraph(module.__doc__)
        if summary:
            lines += [summary, ""]
        bullets = _module_entries(module)
        if bullets:
            lines += bullets + [""]
    lines += ["---", "", "Back to the [API index](index.md)."]
    return "\n".join(lines) + "\n"


def render_index() -> str:
    """docs/index.md: package table, guides, narrative-doc links."""
    lines = [_HEADER, "", "# `repro` API reference", "",
             "One page per package, generated from docstrings by "
             "`python -m repro docs` (checked in CI with `--check`).",
             "", "| Package | Page | Summary |", "| --- | --- | --- |"]
    for package in PACKAGES:
        pkg = importlib.import_module(f"repro.{package}")
        summary = _summary_line(pkg.__doc__).rstrip(".")
        lines.append(f"| `repro.{package}` | [{package}.md]"
                     f"({package}.md) | {summary} |")
    lines += ["", "## Guides", ""]
    for path, name, blurb in _GUIDES:
        lines.append(f"- [{name}]({path}) — {blurb}")
    lines += ["", "## Narrative documents", ""]
    for path, name, blurb in _NARRATIVE:
        lines.append(f"- [{name}]({path}) — {blurb}")
    lines.append("")
    return "\n".join(lines)


def discover_packages() -> List[str]:
    """Every subpackage of ``repro`` found on disk (sorted)."""
    import repro

    return sorted(info.name for info in pkgutil.iter_modules(repro.__path__)
                  if info.ispkg and not info.name.startswith("_"))


def coverage_gaps(documented: Optional[Tuple[str, ...]] = None
                  ) -> List[str]:
    """Subpackages that exist but have no generated API page.

    The guard that keeps :data:`PACKAGES` honest: adding a package to
    ``src/repro/`` without listing it here makes both ``make docs`` and
    ``make docs-check`` fail, instead of silently publishing an index
    that pretends the package does not exist.
    """
    if documented is None:
        documented = PACKAGES
    return [name for name in discover_packages() if name not in documented]


def generate_all() -> Dict[str, str]:
    """Relative path (under docs/) -> rendered page content.

    Raises ``ValueError`` when a subpackage on disk is missing from
    :data:`PACKAGES` (see :func:`coverage_gaps`).
    """
    gaps = coverage_gaps()
    if gaps:
        raise ValueError(
            "subpackages without an API page: "
            + ", ".join(f"repro.{name}" for name in gaps)
            + " — add them to repro.docgen.PACKAGES")
    pages = {f"{package}.md": render_package(package)
             for package in PACKAGES}
    pages["index.md"] = render_index()
    return pages


_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def check_links(doc_paths: List[Path]) -> List[str]:
    """Verify every relative markdown link resolves; return failures."""
    failures = []
    for doc in doc_paths:
        if not doc.exists():
            failures.append(f"{doc}: file missing")
            continue
        for match in _LINK_RE.finditer(doc.read_text(encoding="utf-8")):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue  # pure in-page anchor
            if not (doc.parent / path).exists():
                failures.append(f"{doc}: broken link -> {target}")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro docs",
        description="Generate the docs/ API reference from docstrings.")
    parser.add_argument("--out-dir", default="docs",
                        help="output directory (default: docs)")
    parser.add_argument("--check", action="store_true",
                        help="verify committed pages are up to date and "
                             "all relative markdown links resolve; "
                             "writes nothing")
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    try:
        pages = generate_all()
    except ValueError as exc:  # a subpackage is missing from PACKAGES
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    status = 0

    if args.check:
        for name, content in sorted(pages.items()):
            path = out_dir / name
            if not path.exists():
                print(f"FAIL: {path} missing (run `make docs`)",
                      file=sys.stderr)
                status = 1
            elif path.read_text(encoding="utf-8") != content:
                print(f"FAIL: {path} stale (run `make docs`)",
                      file=sys.stderr)
                status = 1
        narrative = [out_dir / ".." / Path(rel).name
                     for rel, _, _ in _NARRATIVE]
        doc_paths = sorted(out_dir.glob("*.md")) + narrative
        failures = check_links(doc_paths)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            status = 1
        if status == 0:
            print(f"docs check ok: {len(pages)} pages current, links "
                  f"resolve")
    else:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, content in sorted(pages.items()):
            (out_dir / name).write_text(content, encoding="utf-8")
        print(f"wrote {len(pages)} pages to {out_dir}/")
    return status


if __name__ == "__main__":
    sys.exit(main())
