#!/usr/bin/env python3
"""Docs gate: the documentation must actually run.

Five checks, any failure exits non-zero:

1. every ``examples/*.py`` script runs to completion and prints output;
2. every fenced code block in README.md and docs/TUTORIAL.md executes —
   ``python`` blocks are concatenated per document (later blocks may use
   names from earlier ones, as a reader would) and run once; ``bash`` /
   ``console`` blocks contribute their ``repro …`` command lines, which
   run via ``python -m repro`` (install/test lines — pip, pytest, make —
   are environment management, not library usage, and are skipped);
3. ``docs/README.md`` links every page in ``docs/``;
4. no markdown link in README.md or ``docs/*.md`` points at a file that
   does not exist (dangling intra-docs links);
5. every subcommand ``repro --help`` advertises is documented in
   ``docs/API.md``.

Everything executes in a scratch working directory so commands that
write files (``--trace``, ``--checkpoint``, ``--output``) leave no
droppings in the repository.  The scratch directory is seeded with
``chaos.json`` (a copy of the pinned CI schedule,
``tests/fixtures/chaos/schedule_ci.json``) so resilience examples that
take a user-provided fault schedule run as written.

CI runs this as the "docs" step; locally: ``make docs-check`` or
``python tools/check_docs.py``.
"""

from __future__ import annotations

import os
import pathlib
import re
import shlex
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXECUTED_DOCS = (ROOT / "README.md", ROOT / "docs" / "TUTORIAL.md")
SHELL_LANGS = {"bash", "sh", "shell", "console"}
#: Shell lines that manage the environment rather than use the library.
SKIP_COMMANDS = ("pip", "pytest", "make", "cat", "python")

_PER_UNIT_TIMEOUT_S = 600


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return env


def _run(argv: list[str], cwd: pathlib.Path, label: str) -> tuple[bool, str]:
    start = time.perf_counter()
    proc = subprocess.run(
        argv,
        cwd=cwd,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=_PER_UNIT_TIMEOUT_S,
    )
    seconds = time.perf_counter() - start
    ok = proc.returncode == 0
    print(f"  {'ok  ' if ok else 'FAIL'} {label} ({seconds:.1f}s)")
    if not ok:
        tail = (proc.stdout + proc.stderr).strip().splitlines()[-15:]
        for line in tail:
            print(f"       | {line}")
    return ok, proc.stdout


def fenced_blocks(path: pathlib.Path) -> list[tuple[str, str]]:
    """(language, body) for every fenced code block in a markdown file."""
    blocks: list[tuple[str, str]] = []
    lang: str | None = None
    buf: list[str] = []
    for line in path.read_text().splitlines():
        if line.startswith("```"):
            if lang is None:
                lang = line[3:].strip() or "text"
            else:
                blocks.append((lang, "\n".join(buf)))
                lang, buf = None, []
        elif lang is not None:
            buf.append(line)
    return blocks


def shell_commands(body: str) -> list[str]:
    """The executable ``repro …`` commands of one shell block.

    Strips ``$ `` prompts and inline ``#`` comments, joins backslash
    continuations, and drops environment-management lines (pip, pytest,
    make, …).
    """
    joined: list[str] = []
    pending = ""
    for raw in body.splitlines():
        line = raw.strip()
        if line.startswith("$"):
            line = line[1:].strip()
        line = pending + line
        if line.endswith("\\"):
            pending = line[:-1] + " "
            continue
        pending = ""
        # drop a trailing comment (good enough: no quoted '#' in our docs)
        line = line.split(" #")[0].strip()
        if not line or line.startswith("#"):
            continue
        first = shlex.split(line)[0]
        if first in SKIP_COMMANDS:
            continue
        joined.append(line)
    return joined


def check_examples() -> bool:
    print("[examples]")
    ok = True
    for script in sorted((ROOT / "examples").glob("*.py")):
        with tempfile.TemporaryDirectory() as scratch:
            good, out = _run(
                [sys.executable, str(script)],
                pathlib.Path(scratch),
                f"examples/{script.name}",
            )
        if good and len(out) < 100:
            print(f"  FAIL examples/{script.name}: produced no real output")
            good = False
        ok &= good
    return ok


def check_document(path: pathlib.Path) -> bool:
    rel = path.relative_to(ROOT)
    print(f"[{rel}]")
    ok = True
    python_blocks: list[str] = []
    commands: list[str] = []
    for lang, body in fenced_blocks(path):
        if lang == "python":
            python_blocks.append(body)
        elif lang in SHELL_LANGS:
            commands.extend(shell_commands(body))
    with tempfile.TemporaryDirectory() as scratch:
        cwd = pathlib.Path(scratch)
        schedule = ROOT / "tests" / "fixtures" / "chaos" / "schedule_ci.json"
        (cwd / "chaos.json").write_text(schedule.read_text())
        if python_blocks:
            merged = cwd / "doc_blocks.py"
            merged.write_text("\n\n".join(python_blocks) + "\n")
            good, _ = _run(
                [sys.executable, str(merged)],
                cwd,
                f"{rel}: {len(python_blocks)} python block(s)",
            )
            ok &= good
        for command in commands:
            argv = shlex.split(command)
            if argv[0] != "repro":
                print(f"  FAIL {rel}: unexpected command {command!r}")
                ok = False
                continue
            good, _ = _run(
                [sys.executable, "-m", "repro", *argv[1:]],
                cwd,
                f"{rel}: {command}",
            )
            ok &= good
    return ok


def check_docs_index() -> bool:
    print("[docs/README.md index]")
    index = (ROOT / "docs" / "README.md").read_text()
    ok = True
    for page in sorted((ROOT / "docs").glob("*.md")):
        if page.name == "README.md":
            continue
        if page.name not in index:
            print(f"  FAIL docs/README.md does not link {page.name}")
            ok = False
    if ok:
        print("  ok   every docs page is linked")
    return ok


#: ``[text](target)`` — target captured up to the closing paren.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: Link targets that are not files in this repository.
_EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "#")


def check_links() -> bool:
    """No markdown link may point at a missing file (dangling link)."""
    print("[intra-docs links]")
    pages = [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))
    ok = True
    checked = 0
    for page in pages:
        text = page.read_text()
        # ignore links inside fenced code blocks (command examples)
        text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
        for target in _LINK_RE.findall(text):
            if target.startswith(_EXTERNAL_PREFIXES):
                continue
            rel_target = target.split("#", 1)[0]
            if not rel_target:
                continue
            checked += 1
            if not (page.parent / rel_target).exists():
                rel = page.relative_to(ROOT)
                print(f"  FAIL {rel}: dangling link -> {target}")
                ok = False
    if ok:
        print(f"  ok   {checked} relative links all resolve")
    return ok


def check_cli_coverage() -> bool:
    """Every ``repro --help`` subcommand must appear in docs/API.md."""
    print("[CLI coverage in docs/API.md]")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=_PER_UNIT_TIMEOUT_S,
    )
    if proc.returncode != 0:
        print("  FAIL 'repro --help' exited non-zero")
        return False
    # argparse renders choice sets as "{a,b,c,...}"; the subcommand set
    # is the group containing "systems" (an option's choice set would
    # render the same way)
    groups = re.findall(r"\{([a-z0-9,\-\s]+)\}", proc.stdout)
    commands = next(
        (
            [c.strip() for c in g.split(",") if c.strip()]
            for g in groups
            if "systems" in g
        ),
        None,
    )
    if commands is None:
        print("  FAIL could not find the subcommand list in 'repro --help'")
        return False
    api = (ROOT / "docs" / "API.md").read_text()
    ok = True
    for command in commands:
        if f"repro {command}" not in api:
            print(f"  FAIL docs/API.md does not document 'repro {command}'")
            ok = False
    if ok:
        print(f"  ok   all {len(commands)} subcommands documented")
    return ok


def main() -> int:
    ok = check_examples()
    for path in EXECUTED_DOCS:
        ok &= check_document(path)
    ok &= check_docs_index()
    ok &= check_links()
    ok &= check_cli_coverage()
    print("docs gate:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
