"""README.md's examples, run as written.

The ``example.love`` document is written to a temporary directory, every
``$ loveline ...`` command in a shell block runs through ``cli.main`` there
and must print exactly the lines below it, the JSON example must be what
``eval --format json`` prints for that document, the Python blocks run
in order in one namespace, also in a strict interpreter that rejects
reads in the locale's encoding and reports unclosed files, and the
``oracle`` usage messages README quotes are the ones argparse prints.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from loveline.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# A fenced block, possibly indented under a list item: (indent, language, body).
_BLOCK_RE = re.compile(r"^( *)```(\w*)\n(.*?)^\1```", re.M | re.S)


def _blocks(language: str) -> list[str]:
    text = README.read_text(encoding="utf-8")
    return [
        textwrap.dedent(body)
        for _, lang, body in _BLOCK_RE.findall(text)
        if lang == language
    ]


def _example_document() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"\(`example\.love`\):\n\n```\n(.*?)```", text, re.S)
    assert match is not None, "README lost its example.love block"
    return match.group(1)


def _commands() -> list[tuple[str, str]]:
    """Each ``$ loveline ...`` line with the output shown under it."""
    commands: list[tuple[str, list[str]]] = []
    for block in _blocks("sh"):
        if not block.startswith("$ loveline "):
            continue
        for line in block.splitlines():
            if line.startswith("$ "):
                commands.append((line[2:], []))
            else:
                commands[-1][1].append(line + "\n")
    return [(command, "".join(out)) for command, out in commands]


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture
def example_dir(tmp_path, monkeypatch):
    (tmp_path / "example.love").write_text(_example_document(), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_readme_has_examples_to_run():
    assert len(_commands()) >= 2
    assert len(_blocks("python")) >= 2
    assert len(_blocks("json")) == 1


@pytest.mark.parametrize("command, expected", _commands())
def test_shell_example_prints_what_readme_shows(example_dir, command, expected):
    program, *argv = shlex.split(command)
    assert program == "loveline"
    assert _run(argv) == (0, expected)


def test_json_example_is_the_eval_output(example_dir):
    (shown,) = _blocks("json")
    assert _run(["eval", "--format", "json", "example.love"]) == (0, shown)


def test_library_examples_run(example_dir):
    namespace: dict = {}
    for block in _blocks("python"):
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(block, str(README), "exec"), namespace)


def test_library_examples_name_their_encoding_and_close_their_files(
    example_dir,
):
    # Development mode reports an unclosed file as a ResourceWarning on
    # stderr, and a read in the locale's encoding raises EncodingWarning.
    script = "\n".join(_blocks("python"))
    env = dict(os.environ, PYTHONPATH=str(README.parent / "src"))
    result = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding",
         "-W", "error::EncodingWarning", "-X", "dev", "-c", script],
        capture_output=True, env=env,
    )
    assert (result.returncode, result.stderr) == (0, b"")


@pytest.mark.parametrize("flag, message", [
    (["--granularity", "0"], "granularity R must be positive"),
    (["--granularity=-1/2"], "granularity R must be positive"),
    (["--granularity", "-1/2"], "expected one argument"),
])
def test_oracle_usage_messages_readme_quotes(example_dir, capsys, flag, message):
    # README wraps its lines, so compare with single spaces.
    assert f"`{message}`" in " ".join(README.read_text(encoding="utf-8").split())
    with pytest.raises(SystemExit) as exc:
        main(["oracle", *flag, "example.love"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f": {message}\n")
