"""Tier-1 guard for the documentation tree (same checks as the CI docs job):
every ```bash block parses, every relative link resolves, and every
documented ``repro-lb`` (or ``python -m repro.cli``) command parses against
the real CLI parser."""

import importlib.util
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _build_parser

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKER = REPO_ROOT / "tools" / "check_docs.py"
DOC_FILES = sorted(
    [REPO_ROOT / "README.md"] + list((REPO_ROOT / "docs").glob("*.md"))
)


def test_docs_tree_exists():
    names = {path.name for path in DOC_FILES}
    assert {
        "README.md",
        "api.md",
        "architecture.md",
        "campaigns.md",
        "cli.md",
        "resilience.md",
        "reproducing-the-paper.md",
        "traces.md",
    } <= names


def test_checker_passes_on_repo_docs():
    completed = subprocess.run(
        [sys.executable, str(CHECKER)] + [str(path) for path in DOC_FILES],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


def test_checker_catches_broken_link(tmp_path):
    bad = tmp_path / "bad.md"
    bad.write_text("see [missing](does-not-exist.md)\n")
    completed = subprocess.run(
        [sys.executable, str(CHECKER), str(bad)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 1
    assert "broken link" in completed.stderr


@pytest.mark.skipif(shutil.which("bash") is None, reason="bash not available")
def test_checker_catches_bash_syntax_error(tmp_path):
    bad = tmp_path / "bad.md"
    bad.write_text("```bash\nfor do done (((\n```\n")
    completed = subprocess.run(
        [sys.executable, str(CHECKER), str(bad)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 1
    assert "does not parse" in completed.stderr


def test_checker_ignores_links_inside_code_fences(tmp_path):
    good = tmp_path / "good.md"
    good.write_text("```text\nsee [label](not/a/real/file.md)\n```\n")
    completed = subprocess.run(
        [sys.executable, str(CHECKER), str(good)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr


def test_checker_ignores_external_links_and_anchors(tmp_path):
    good = tmp_path / "good.md"
    good.write_text(
        "[web](https://example.com) [anchor](#section) ![img](missing.png)\n"
    )
    completed = subprocess.run(
        [sys.executable, str(CHECKER), str(good)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr


def _extract_bash_blocks():
    spec = importlib.util.spec_from_file_location("check_docs", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.extract_bash_blocks


#: Interpreters that run the CLI as ``<python> -m repro.cli``.
PYTHONS = ("python", "python3")


def _arguments_start(tokens):
    """Index of the first CLI argument in ``tokens`` (None if no CLI call)."""
    for index, token in enumerate(tokens):
        if token == "repro-lb":
            return index + 1
        if token in PYTHONS and tokens[index + 1:index + 3] == ["-m", "repro.cli"]:
            return index + 3
    return None


def documented_commands(paths):
    """``(location, argv)`` of every CLI command in ```bash blocks.

    The CLI is ``repro-lb`` or ``python -m repro.cli`` (``python3`` too).
    Backslash continuations are joined; a command ends at a pipe, ``&&``,
    ``;``, a redirection or a comment.
    """
    extract = _extract_bash_blocks()
    commands = []
    for path in paths:
        for start, block in extract(path.read_text(encoding="utf-8")):
            pending, first = "", None
            for number, line in enumerate(block.splitlines(), start=start + 1):
                first = number if first is None else first
                if line.endswith("\\"):
                    pending += line[:-1] + " "
                    continue
                logical, where = pending + line, f"{path.name}:{first}"
                pending, first = "", None
                if "repro-lb" not in logical and "repro.cli" not in logical:
                    continue  # other lines may split a quoted string
                lexer = shlex.shlex(logical, posix=True, punctuation_chars=True)
                lexer.whitespace_split = True
                tokens = list(lexer)
                start = _arguments_start(tokens)
                if start is None:  # e.g. only named in a comment
                    continue
                argv = []
                for token in tokens[start:]:
                    if set(token) <= set("|&;<>()"):
                        break
                    argv.append(token)
                commands.append((where, argv))
    return commands


def unparsable_commands(paths):
    """One message per documented command the CLI parser rejects."""
    failures = []
    for where, argv in documented_commands(paths):
        try:
            _build_parser().parse_args(argv)
        except SystemExit as error:
            if error.code != 0:  # --help exits 0
                failures.append(f"{where}: repro-lb {shlex.join(argv)}")
    return failures


def test_documented_commands_parse(capsys):
    commands = documented_commands(DOC_FILES)
    assert len(commands) >= 40
    assert {argv[0] for _, argv in commands} >= {"analyze", "sweep", "campaign", "run"}
    assert unparsable_commands(DOC_FILES) == []


def test_documented_command_check_catches_a_bad_flag(tmp_path, capsys):
    bad = tmp_path / "bad.md"
    bad.write_text(
        "```bash\n"
        "repro-lb sweep --servers 3 \\\n"
        "  --bogus 1 | head   # a continuation, a pipe and a comment\n"
        "repro-lb analyze -N 3 -u 0.5 > out.txt\n"
        "PYTHONPATH=src python -m repro.cli fleet -N 10 -u 0.5 --jsonl r.jsonl\n"
        "python3 -m repro.cli backends\n"
        "python -c 'import repro.cli'   # names the module but runs no command\n"
        "```\n"
    )
    assert documented_commands([bad]) == [
        ("bad.md:2", ["sweep", "--servers", "3", "--bogus", "1"]),
        ("bad.md:4", ["analyze", "-N", "3", "-u", "0.5"]),
        ("bad.md:5", ["fleet", "-N", "10", "-u", "0.5", "--jsonl", "r.jsonl"]),
        ("bad.md:6", ["backends"]),
    ]
    assert unparsable_commands([bad]) == [
        "bad.md:2: repro-lb sweep --servers 3 --bogus 1",
        "bad.md:5: repro-lb fleet -N 10 -u 0.5 --jsonl r.jsonl",
    ]
