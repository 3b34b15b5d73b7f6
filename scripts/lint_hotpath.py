#!/usr/bin/env python3
"""Custom lint: forbid per-packet-hostile constructs in hot-path files.

The per-packet path (src/core/, the SPSC ring, the packet record) must not
heap-allocate, use node-based/heap-backed std containers, or dispatch
virtually — those cost allocations, pointer chases, and branch
mispredictions on every packet, and the whole point of mirroring a
line-rate pipeline is that the steady state touches none of them.

Rules (matched after comments and string literals are stripped):
  heap-alloc   new expressions, malloc/calloc/realloc, make_unique/shared
  std-map      std::map / std::multimap (node-based, O(log n) chases)
  std-string   std::string (heap-backed, allocates on mutation)
  virtual      virtual member functions (indirect dispatch per call)

A construct that is genuinely setup-time or reporting-time (constructor
allocation, end-of-run summary) may be waived with a same-line comment:

    shadow_rt_ = std::make_unique<...>(  // hotpath-ok: construction only

or, for declarations too long to annotate inline, a comment-only line
immediately above the offending line:

    // hotpath-ok: invoked only on eviction, not per packet
    virtual bool useful(...) const = 0;

Every waiver must carry a reason after the colon; a bare "hotpath-ok"
fails the lint. A waiver that shields no finding is itself an error
([stale-waiver]) — stale waivers rot into blanket permission slips when
the code around them changes, so they must be deleted with the construct
they excused.

Usage:
    lint_hotpath.py              lint the hot-path globs of this repo
    lint_hotpath.py FILE...      lint exactly these files (fixture/test
                                 hook; files are repo-relative or absolute)

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

# Per-packet translation units. config_check.* is construction-time-only
# support code (it exists to *reject* configs before any packet flows) and
# is exempt wholesale; checkpoint.* is quiesce-time-only (images are cut and
# restored at epoch barriers, never on the per-packet path) and likewise
# exempt — the snapshot()/restore() members living in hot files stay linted.
# The daemon's socket source decodes every live record in its block loop, so
# it is a per-packet path too, and so is hashing.hpp: its SlotHash computes
# the table index of every RT and PT probe. four_tuple.hpp defines the
# hash_tuple() the monitor's span loop inlines into those probes.
HOT_GLOBS = [
    "src/common/hashing.hpp",
    "src/common/four_tuple.hpp",
    "src/core/*.hpp",
    "src/core/*.cpp",
    "src/runtime/spsc_ring.hpp",
    "src/common/packet.hpp",
    "src/common/packet.cpp",
    "src/daemon/socket_source.hpp",
    "src/daemon/socket_source.cpp",
]
EXEMPT = {
    "src/core/config_check.hpp", "src/core/config_check.cpp",
    "src/core/checkpoint.hpp", "src/core/checkpoint.cpp",
}

RULES = [
    ("heap-alloc",
     re.compile(r"\bnew\b|\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\(|"
                r"\bmake_unique\b|\bmake_shared\b"),
     "heap allocation on the packet path"),
    ("std-map",
     re.compile(r"\bstd::(multi)?map\s*<"),
     "node-based map: O(log n) pointer chases per lookup"),
    ("std-string",
     re.compile(r"\bstd::string\b"),
     "heap-backed string on the packet path"),
    ("virtual",
     re.compile(r"\bvirtual\b"),
     "virtual dispatch: indirect call per packet"),
]

WAIVER = re.compile(r"hotpath-ok:\s*(\S.*)")
BARE_WAIVER = re.compile(r"hotpath-ok(?!:)|hotpath-ok:\s*$")

STRING_LIT = re.compile(r'"(?:[^"\\]|\\.)*"')
CHAR_LIT = re.compile(r"'(?:[^'\\]|\\.)*'")
LINE_COMMENT = re.compile(r"//.*$")


def strip_code(line: str, in_block_comment: bool) -> tuple[str, bool]:
    """Remove comments and literals; returns (code, still_in_block)."""
    out = []
    i = 0
    while i < len(line):
        if in_block_comment:
            end = line.find("*/", i)
            if end == -1:
                return "".join(out), True
            i = end + 2
            in_block_comment = False
            continue
        start = line.find("/*", i)
        rest = line[i:] if start == -1 else line[i:start]
        out.append(rest)
        if start == -1:
            break
        i = start + 2
        in_block_comment = True
    code = "".join(out)
    code = LINE_COMMENT.sub("", code)
    code = STRING_LIT.sub('""', code)
    code = CHAR_LIT.sub("''", code)
    return code, in_block_comment


def lint_file(path: pathlib.Path) -> list[str]:
    findings = []
    in_block = False
    try:
        rel = path.relative_to(REPO)
    except ValueError:
        rel = path
    # Waiver lineno -> number of findings it shielded; anything still at
    # zero after the scan is stale and reported as its own finding.
    waiver_hits: dict[int, int] = {}
    carry_from = None  # comment-only waiver line covering this line
    for lineno, raw in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        if BARE_WAIVER.search(raw) and not WAIVER.search(raw):
            findings.append(
                f"{rel}:{lineno}: [waiver] 'hotpath-ok' without a reason — "
                f"write 'hotpath-ok: <why this is not per-packet>'")
        has_waiver = WAIVER.search(raw) is not None
        if has_waiver:
            waiver_hits[lineno] = 0
        covering = lineno if has_waiver else carry_from
        code, in_block = strip_code(raw, in_block)
        # A comment-only waiver line extends its waiver to the next line,
        # covering declarations too long to annotate inline.
        carry_from = lineno if (has_waiver and not code.strip()) else None
        for name, pattern, why in RULES:
            if pattern.search(code):
                if covering is not None:
                    waiver_hits[covering] += 1
                    continue
                findings.append(f"{rel}:{lineno}: [{name}] {why}\n"
                                f"    {raw.strip()}")
    for lineno in sorted(waiver_hits):
        if waiver_hits[lineno] == 0:
            findings.append(
                f"{rel}:{lineno}: [stale-waiver] 'hotpath-ok' shields no "
                f"finding — the construct it excused is gone; delete the "
                f"waiver")
    return findings


def main(argv: list[str]) -> int:
    if any(a in ("-h", "--help") for a in argv[1:]):
        print(__doc__)
        return 2
    if len(argv) > 1:
        # Explicit file list: the fixture/test hook.
        files = []
        for name in argv[1:]:
            path = pathlib.Path(name)
            if not path.is_absolute():
                path = REPO / path
            if not path.is_file():
                print(f"lint_hotpath: no such file: {name}")
                return 2
            files.append(path)
    else:
        files = []
        for glob in HOT_GLOBS:
            files.extend(sorted(REPO.glob(glob)))
        files = [f for f in files
                 if str(f.relative_to(REPO)) not in EXEMPT]
    if not files:
        print("lint_hotpath: no hot-path files found — tree layout changed?")
        return 2

    all_findings = []
    for path in files:
        all_findings.extend(lint_file(path))
    if all_findings:
        print(f"lint_hotpath: {len(all_findings)} finding(s) in "
              f"{len(files)} hot-path files:\n")
        for finding in all_findings:
            print(finding)
        return 1
    print(f"lint_hotpath: OK ({len(files)} hot-path files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
