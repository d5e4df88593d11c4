#!/usr/bin/env python3
"""Documentation checks run by the CI docs job (and locally).

Three independent checks, all offline:

1. Markdown link check — every relative link in README.md, ROADMAP.md and
   docs/*.md must resolve to a file in the checkout, and every anchor
   (same-file or cross-file) must match a real heading.
2. Protocol drift guard — docs/PROTOCOL.md is the normative wire spec, so
   the constants it states are grep-pinned to the ones the implementation
   compiles (src/system/fleet_protocol.hpp): protocol version, frame
   magic, header size, payload cap, and every fixed payload size. Bumping
   either side without the other fails here, not in a code review.
3. Test citations — every `<name>_test` the docs cite must have its
   source, tests/<name>.cpp.

Exit code 0 when clean; 1 with one line per finding otherwise.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOC_FILES = [ROOT / "README.md", ROOT / "ROADMAP.md"] + sorted(
    (ROOT / "docs").glob("*.md"))

PROTOCOL_HEADER = ROOT / "src" / "system" / "fleet_protocol.hpp"
PROTOCOL_DOC = ROOT / "docs" / "PROTOCOL.md"

# Markdown links: [text](target). Images and bare URLs are out of scope.
LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
TEST_NAME_RE = re.compile(r"\b([a-z][a-z0-9_]*_test)\b")


def github_slug(heading):
    """GitHub's anchor slug: lowercase, drop punctuation, spaces->dashes."""
    text = re.sub(r"[`*_]", "", heading.strip())
    text = text.lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(path, cache={}):
    if path not in cache:
        cache[path] = {github_slug(h)
                       for h in HEADING_RE.findall(path.read_text())}
    return cache[path]


def check_links(errors):
    for doc in DOC_FILES:
        text = doc.read_text()
        rel = doc.relative_to(ROOT)
        for target in LINK_RE.findall(text):
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:
                continue
            path_part, _, anchor = target.partition("#")
            dest = doc if not path_part else (
                doc.parent / path_part).resolve()
            if not dest.exists():
                errors.append(f"{rel}: broken link '{target}' "
                              f"(no such file {path_part})")
                continue
            if anchor and dest.suffix == ".md":
                if anchor not in anchors_of(dest):
                    errors.append(f"{rel}: broken anchor '{target}' "
                                  f"(no heading slug '{anchor}')")


def header_constants():
    text = PROTOCOL_HEADER.read_text()
    consts = {}
    for m in re.finditer(
            r"constexpr\s+[\w:]+\s+k(\w+)\s*=\s*(0x[0-9A-Fa-f]+|\d+)", text):
        consts[m.group(1)] = int(m.group(2), 0)
    return consts


def check_protocol_drift(errors):
    consts = header_constants()
    doc = PROTOCOL_DOC.read_text()
    rel = PROTOCOL_DOC.relative_to(ROOT)
    hdr = PROTOCOL_HEADER.relative_to(ROOT)

    def require(name, pattern, describe):
        if name not in consts:
            errors.append(f"{hdr}: constant k{name} not found "
                          "(drift guard needs updating?)")
            return
        if not re.search(pattern.format(v=consts[name]), doc):
            errors.append(
                f"{rel}: {describe.format(v=consts[name])} — the doc "
                f"drifted from k{name} in {hdr}")

    require("ProtocolVersion", r"\*\*Protocol version:\*\* {v}\b",
            "must state '**Protocol version:** {v}'")
    require("ProtocolMagic", r"`0x{v:X}`",
            "must state the frame magic `0x{v:X}`")
    require("FrameHeaderSize", r"\b{v}-byte header\b",
            "must describe the {v}-byte header")
    require("MaxPayloadSize", r"\b{v}\b",
            "must state the payload cap {v}")

    # Every fixed payload size in the header must appear as the
    # "### `Name` (N bytes)" heading of its layout section.
    sections = {
        "HelloRequestSize": "Hello",
        "PingSize": "Ping",
        "FleetRequestSize": "FleetRequest",
        "StudyRequestSize": "StudyRequest",
        "JobResultSize": "JobResult",
        "DoneSize": "Done",
        "ErrorSize": "Error",
    }
    for const, section in sections.items():
        require(const, rf"### `{section}` \({{v}} bytes\)",
                f"must have a section '### `{section}` ({{v}} bytes)'")
    # HelloOk has no layout section of its own; pin it via the type table.
    require("HelloOkSize", r"`HelloOk`\s*\|[^|]*\|\s*{v}\s*\|",
            "type table must list `HelloOk` with payload size {v}")


def check_test_citations(errors):
    for doc in DOC_FILES:
        rel = doc.relative_to(ROOT)
        for name in sorted(set(TEST_NAME_RE.findall(doc.read_text()))):
            if not (ROOT / "tests" / f"{name}.cpp").exists():
                errors.append(f"{rel}: cites {name}, but there is no "
                              f"tests/{name}.cpp")


def main():
    errors = []
    check_links(errors)
    check_protocol_drift(errors)
    check_test_citations(errors)
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    if errors:
        print(f"{len(errors)} documentation finding(s)", file=sys.stderr)
        return 1
    print(f"docs OK: {len(DOC_FILES)} file(s) link-checked, protocol "
          "constants in sync, cited tests exist")
    return 0


if __name__ == "__main__":
    sys.exit(main())
