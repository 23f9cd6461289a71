#!/usr/bin/env python3
"""Docs-drift and link checker.

Seven checks, all run by CI (.github/workflows/ci.yml):

1. CLI drift: run every documented binary with --help and verify that
   each long flag it advertises appears in docs/CLI.md.  A flag added to
   a binary without a docs update fails the build.

2. Markdown links: every relative link in README.md, DESIGN.md and
   docs/*.md must point at an existing file (anchors are stripped).

3. Lint-code registry: every AMG-L* finding code emitted by
   src/analysis must have a row in docs/LINT.md, and every code row in
   docs/LINT.md must still exist in the analyzer (no stale docs).
   Likewise every AMG-B* code emitted by the bytecode verifier
   (src/analysis) or the VM's entry check (src/lang) must have a row
   in docs/LINT.md and vice versa.

4. Opcode registry: every opcode in the AMG_OPCODE_LIST X-macro table
   (src/lang/bytecode.h) must have a registry row in docs/BYTECODE.md
   with matching operand count and stack effect, and every documented
   row must still exist in the header — both directions, so the VM
   spec can never silently drift from the implementation.

5. Observability registry: every counter/histogram name instrumented
   with OBS_COUNT / OBS_COUNT_N / OBS_HIST under src/ must have a
   registry row in docs/OBSERVABILITY.md, and every documented row must
   still exist in the sources — both directions, with matching kind
   (counter vs histogram).

6. Embedding registry: every AMGEN_API function exported by
   include/amgen.h must have a reference row in docs/EMBEDDING.md, and
   every documented function must still be declared in the header —
   both directions, so the C ABI reference can never silently drift
   from the shipped surface.

7. Serializer-code registry: the AMG-IO-* codes raised under src/io and
   the numbers listed on the `AMG-IO-*` row of docs/CLI.md must match,
   both directions, so a retired code cannot stay documented.

Usage:
    python3 scripts/check_docs.py [--bin-dir build/examples]

Run from anywhere; paths resolve relative to the repository root (the
parent of this script's directory).
"""

import argparse
import os
import re
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Binaries whose every --help flag must be documented in docs/CLI.md.
DOCUMENTED_BINARIES = ["dsl_runner", "full_flow", "batch_runner", "amg_lint",
                       "amg_replay", "amg_serve"]

# Markdown files whose relative links must resolve.
LINKED_DOCS = ["README.md", "DESIGN.md", "ROADMAP.md"]

FLAG_RE = re.compile(r"(?<![-\w])(--[a-z][a-z0-9-]*)")
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def fail(errors):
    for e in errors:
        print(f"check_docs: {e}", file=sys.stderr)
    print(f"check_docs: FAILED ({len(errors)} problem(s))", file=sys.stderr)
    return 1


def check_cli_drift(bin_dir):
    errors = []
    cli_md_path = os.path.join(REPO, "docs", "CLI.md")
    try:
        with open(cli_md_path, encoding="utf-8") as f:
            cli_md = f.read()
    except OSError as e:
        return [f"cannot read docs/CLI.md: {e}"]

    for name in DOCUMENTED_BINARIES:
        binary = os.path.join(bin_dir, name)
        if not os.path.exists(binary):
            errors.append(f"binary not found: {binary} (build first?)")
            continue
        out = subprocess.run([binary, "--help"], capture_output=True,
                             text=True, timeout=60)
        help_text = out.stdout + out.stderr
        if out.returncode != 0:
            errors.append(f"{name} --help exited with {out.returncode}")
            continue
        flags = sorted(set(FLAG_RE.findall(help_text)))
        if not flags:
            errors.append(f"{name} --help advertises no flags; drift check "
                          "would be vacuous")
        for flag in flags:
            # Boundary-aware: "--cache-dir" must not satisfy "--cache-dirs".
            if not re.search(re.escape(flag) + r"(?![\w-])", cli_md):
                errors.append(f"{name}: flag {flag} from --help is not "
                              "documented in docs/CLI.md")
    return errors


def md_files():
    for rel in LINKED_DOCS:
        path = os.path.join(REPO, rel)
        if os.path.exists(path):
            yield rel, path
    docs = os.path.join(REPO, "docs")
    for entry in sorted(os.listdir(docs)):
        if entry.endswith(".md"):
            yield os.path.join("docs", entry), os.path.join(docs, entry)


def strip_code(text):
    """Drop fenced and inline code, where link syntax is not a link."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    return re.sub(r"`[^`]*`", "", text)


def check_links():
    errors = []
    for rel, path in md_files():
        with open(path, encoding="utf-8") as f:
            text = strip_code(f.read())
        base = os.path.dirname(path)
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue  # pure in-page anchor
            resolved = os.path.normpath(os.path.join(base, target))
            if not os.path.exists(resolved):
                errors.append(f"{rel}: broken link -> {target}")
    return errors


LINT_CODE_RE = re.compile(r'"(AMG-L\d{3})"')
LINT_DOC_ROW_RE = re.compile(r"^\|\s*`(AMG-L\d{3})`", re.M)


def check_lint_registry():
    """src/analysis emits <-> docs/LINT.md documents, both directions."""
    errors = []
    emitted = set()
    analysis = os.path.join(REPO, "src", "analysis")
    for entry in sorted(os.listdir(analysis)):
        if not entry.endswith((".cpp", ".h")):
            continue
        with open(os.path.join(analysis, entry), encoding="utf-8") as f:
            emitted.update(LINT_CODE_RE.findall(f.read()))
    if not emitted:
        return ["no AMG-L* codes found under src/analysis; registry check "
                "would be vacuous"]

    lint_md = os.path.join(REPO, "docs", "LINT.md")
    try:
        with open(lint_md, encoding="utf-8") as f:
            documented = set(LINT_DOC_ROW_RE.findall(f.read()))
    except OSError as e:
        return [f"cannot read docs/LINT.md: {e}"]

    for code in sorted(emitted - documented):
        errors.append(f"lint code {code} is emitted by src/analysis but has "
                      "no registry row in docs/LINT.md")
    for code in sorted(documented - emitted):
        errors.append(f"docs/LINT.md documents {code} but src/analysis never "
                      "emits it (stale registry row?)")
    return errors


VERIFY_CODE_RE = re.compile(r'"(AMG-B\d{3})"')
VERIFY_DOC_ROW_RE = re.compile(r"^\|\s*`(AMG-B\d{3})`", re.M)


def check_verifier_registry():
    """AMG-B codes <-> docs/LINT.md registry rows, both directions.

    The bytecode verifier emits under src/analysis; the VM entry check
    (AMG-B040) lives in src/lang/vm.cpp — scan both.
    """
    errors = []
    emitted = set()
    for sub in ("analysis", "lang"):
        directory = os.path.join(REPO, "src", sub)
        for entry in sorted(os.listdir(directory)):
            if not entry.endswith((".cpp", ".h")):
                continue
            with open(os.path.join(directory, entry), encoding="utf-8") as f:
                emitted.update(VERIFY_CODE_RE.findall(f.read()))
    if not emitted:
        return ["no AMG-B* codes found under src/analysis or src/lang; "
                "verifier registry check would be vacuous"]

    lint_md = os.path.join(REPO, "docs", "LINT.md")
    try:
        with open(lint_md, encoding="utf-8") as f:
            documented = set(VERIFY_DOC_ROW_RE.findall(f.read()))
    except OSError as e:
        return [f"cannot read docs/LINT.md: {e}"]

    for code in sorted(emitted - documented):
        errors.append(f"verifier code {code} is emitted by the sources but "
                      "has no registry row in docs/LINT.md")
    for code in sorted(documented - emitted):
        errors.append(f"docs/LINT.md documents {code} but the sources never "
                      "emit it (stale registry row?)")
    return errors


# An X-macro entry's name, operand count and stack effect always sit on
# the entry's first line: X(NAME, <operands>, "<stack>", "summary..."
OPCODE_XMACRO_RE = re.compile(r'X\(\s*(\w+),\s*(\d+),\s*"([^"]*)"')
# A registry row: | `NAME` | <operands> | <stack> | description... |
OPCODE_DOC_ROW_RE = re.compile(
    r"^\|\s*`(\w+)`\s*\|\s*(\d+)\s*\|\s*([^|\s]+)\s*\|", re.M)


def check_opcode_registry():
    """AMG_OPCODE_LIST <-> docs/BYTECODE.md registry table, both ways."""
    errors = []
    header = os.path.join(REPO, "src", "lang", "bytecode.h")
    try:
        with open(header, encoding="utf-8") as f:
            declared = {name: (int(nops), stack)
                        for name, nops, stack in
                        OPCODE_XMACRO_RE.findall(f.read())}
    except OSError as e:
        return [f"cannot read src/lang/bytecode.h: {e}"]
    if not declared:
        return ["no X(...) entries found in src/lang/bytecode.h; opcode "
                "registry check would be vacuous"]

    bc_md = os.path.join(REPO, "docs", "BYTECODE.md")
    try:
        with open(bc_md, encoding="utf-8") as f:
            documented = {name: (int(nops), stack)
                          for name, nops, stack in
                          OPCODE_DOC_ROW_RE.findall(f.read())}
    except OSError as e:
        return [f"cannot read docs/BYTECODE.md: {e}"]

    for name in sorted(set(declared) - set(documented)):
        errors.append(f"opcode {name} is in AMG_OPCODE_LIST but has no "
                      "registry row in docs/BYTECODE.md")
    for name in sorted(set(documented) - set(declared)):
        errors.append(f"docs/BYTECODE.md documents opcode {name} but "
                      "AMG_OPCODE_LIST no longer declares it (stale row?)")
    for name in sorted(set(declared) & set(documented)):
        if declared[name] != documented[name]:
            errors.append(
                f"opcode {name}: docs/BYTECODE.md says operands="
                f"{documented[name][0]} stack={documented[name][1]!r} but "
                f"src/lang/bytecode.h declares operands={declared[name][0]} "
                f"stack={declared[name][1]!r}")
    return errors


# An instrumentation site: OBS_COUNT("name"), OBS_COUNT_N("name", n) or
# OBS_HIST("name", v).  Names are required to be string literals (see
# docs/OBSERVABILITY.md "Instrumenting new code"), so a source grep is the
# ground truth.
OBS_SITE_RE = re.compile(r'OBS_(COUNT_N|COUNT|HIST)\(\s*"([^"]+)"')
# A registry row: | `name` | counter/histogram | description... |
OBS_DOC_ROW_RE = re.compile(
    r"^\|\s*`([a-z][a-z0-9_.]*)`\s*\|\s*(counter|histogram)\s*\|", re.M)


def check_obs_registry():
    """OBS_* sites under src/ <-> docs/OBSERVABILITY.md registry table."""
    errors = []
    instrumented = {}  # name -> "counter" | "histogram"
    for root, _dirs, files in os.walk(os.path.join(REPO, "src")):
        for entry in sorted(files):
            if not entry.endswith((".cpp", ".h")):
                continue
            with open(os.path.join(root, entry), encoding="utf-8") as f:
                for macro, name in OBS_SITE_RE.findall(f.read()):
                    kind = "histogram" if macro == "HIST" else "counter"
                    prev = instrumented.setdefault(name, kind)
                    if prev != kind:
                        errors.append(f"{name} is used both as a counter and "
                                      "a histogram under src/")
    if not instrumented:
        return ["no OBS_COUNT/OBS_HIST sites found under src/; obs registry "
                "check would be vacuous"]

    obs_md = os.path.join(REPO, "docs", "OBSERVABILITY.md")
    try:
        with open(obs_md, encoding="utf-8") as f:
            documented = dict(OBS_DOC_ROW_RE.findall(f.read()))
    except OSError as e:
        return [f"cannot read docs/OBSERVABILITY.md: {e}"]

    for name in sorted(set(instrumented) - set(documented)):
        errors.append(f"{instrumented[name]} {name} is instrumented under "
                      "src/ but has no registry row in docs/OBSERVABILITY.md")
    for name in sorted(set(documented) - set(instrumented)):
        errors.append(f"docs/OBSERVABILITY.md documents {name} but no "
                      "OBS_* site under src/ uses it (stale registry row?)")
    for name in sorted(set(instrumented) & set(documented)):
        if instrumented[name] != documented[name]:
            errors.append(f"{name}: docs/OBSERVABILITY.md says "
                          f"{documented[name]} but src/ instruments it as a "
                          f"{instrumented[name]}")
    return errors


# An exported C-ABI declaration: the function name always sits on the
# AMGEN_API line, first amg_* token directly followed by '('.
CAPI_DECL_RE = re.compile(r"^AMGEN_API\s.*?\b(amg_\w+)\s*\(", re.M)
# A reference row: | `amg_name(...)` | returns | notes |
CAPI_DOC_ROW_RE = re.compile(r"^\|\s*`(amg_\w+)\(", re.M)


def check_embedding_registry():
    """include/amgen.h exports <-> docs/EMBEDDING.md reference rows."""
    errors = []
    header = os.path.join(REPO, "include", "amgen.h")
    try:
        with open(header, encoding="utf-8") as f:
            declared = set(CAPI_DECL_RE.findall(f.read()))
    except OSError as e:
        return [f"cannot read include/amgen.h: {e}"]
    if not declared:
        return ["no AMGEN_API declarations found in include/amgen.h; "
                "embedding registry check would be vacuous"]

    emb_md = os.path.join(REPO, "docs", "EMBEDDING.md")
    try:
        with open(emb_md, encoding="utf-8") as f:
            documented = set(CAPI_DOC_ROW_RE.findall(f.read()))
    except OSError as e:
        return [f"cannot read docs/EMBEDDING.md: {e}"]

    for name in sorted(declared - documented):
        errors.append(f"{name} is exported by include/amgen.h but has no "
                      "reference row in docs/EMBEDDING.md")
    for name in sorted(documented - declared):
        errors.append(f"docs/EMBEDDING.md documents {name} but "
                      "include/amgen.h no longer declares it (stale row?)")
    return errors


IO_CODE_RE = re.compile(r'"AMG-IO-(\d{3})"')
# The family row: | `AMG-IO-*` | layout serializer | 001 bad magic · ... |
IO_DOC_ROW_RE = re.compile(r"^\|\s*`AMG-IO-\*`\s*\|[^|]*\|([^|]*)\|", re.M)


def check_io_registry():
    """AMG-IO codes raised under src/io <-> the docs/CLI.md family row."""
    raised = set()
    io_dir = os.path.join(REPO, "src", "io")
    for entry in sorted(os.listdir(io_dir)):
        if entry.endswith((".cpp", ".h")):
            with open(os.path.join(io_dir, entry), encoding="utf-8") as f:
                raised.update(IO_CODE_RE.findall(f.read()))
    if not raised:
        return ["no AMG-IO-* codes found under src/io; serializer registry "
                "check would be vacuous"]

    cli_md = os.path.join(REPO, "docs", "CLI.md")
    try:
        with open(cli_md, encoding="utf-8") as f:
            rows = IO_DOC_ROW_RE.findall(f.read())
    except OSError as e:
        return [f"cannot read docs/CLI.md: {e}"]
    if len(rows) != 1:
        return [f"docs/CLI.md has {len(rows)} `AMG-IO-*` rows; expected one"]
    documented = set(re.findall(r"\b(\d{3})\b", rows[0]))

    errors = []
    for num in sorted(raised - documented):
        errors.append(f"AMG-IO-{num} is raised under src/io but is not listed "
                      "on the AMG-IO-* row of docs/CLI.md")
    for num in sorted(documented - raised):
        errors.append(f"docs/CLI.md lists AMG-IO-{num} but src/io never "
                      "raises it (stale entry?)")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bin-dir", default=os.path.join("build", "examples"),
                    help="directory holding the example binaries")
    ap.add_argument("--skip-cli", action="store_true",
                    help="only check markdown links (no binaries needed)")
    args = ap.parse_args()

    bin_dir = args.bin_dir
    if not os.path.isabs(bin_dir):
        bin_dir = os.path.join(REPO, bin_dir)

    errors = [] if args.skip_cli else check_cli_drift(bin_dir)
    errors += check_links()
    errors += check_lint_registry()
    errors += check_verifier_registry()
    errors += check_opcode_registry()
    errors += check_obs_registry()
    errors += check_embedding_registry()
    errors += check_io_registry()
    if errors:
        return fail(errors)
    print("check_docs: OK (CLI flags documented, markdown links resolve, "
          "lint-code, verifier-code, opcode, observability, embedding and "
          "serializer-code registries in sync)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
