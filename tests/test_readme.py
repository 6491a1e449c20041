"""The README's examples hold as printed.

Every ``$ wstar …`` transcript under "Quick start" is run through
``wstar.cli.main`` and must print its README output byte for byte.  The
first two "Library use" blocks are run in order in one namespace and must
give the dust cosmology's fluid (μ = 4/3 and p = 0 at t = 1) and ∇Ricci of
the shape they state.
"""

import re
import shlex
from pathlib import Path

import pytest

from wstar import cli

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else len(README)]


def code_blocks(text: str, lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, flags=re.M | re.S)


def transcripts() -> list:
    """(argv, output) per ``$ wstar`` command: a command line, continued
    after a trailing ``\\``, then its output up to the next command; the
    blank lines before that command only separate the two."""
    found = []
    for block in code_blocks(section("Quick start"), "sh"):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M)[1:]:
            command, _, output = re.sub(r"\\\n", " ", chunk).partition("\n")
            assert command.startswith("$ wstar "), command
            found.append((shlex.split(command)[2:], output.rstrip("\n") + "\n"))
    return found


TRANSCRIPTS = transcripts()


def test_the_quick_start_has_transcripts():
    assert len(TRANSCRIPTS) >= 4


@pytest.mark.parametrize("argv, output", TRANSCRIPTS, ids=[" ".join(a[:3]) for a, _ in TRANSCRIPTS])
def test_quick_start_transcript_reproduces(argv, output, capsys):
    cli.main(argv)
    assert capsys.readouterr().out == output


def test_library_use_examples_give_what_they_state(capsys):
    namespace = {}
    for block in code_blocks(section("Library use"), "python")[:2]:
        exec(compile(block, "README.md", "exec"), namespace)
    capsys.readouterr()
    fluid, vals = namespace["fluid"], namespace["vals"]
    assert abs(fluid.mu - 4 / 3) <= 1e-12
    assert abs(fluid.p) <= 1e-12
    assert vals["nric"].shape == (1, 4, 4, 4)
