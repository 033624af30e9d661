"""Every script and ``make`` target that the Makefile, CI, the README,
``docs/*.md`` and the verify skill name has to exist — so deleting a
benchmark or a target means deleting its mentions in the same change."""

import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
SOURCES = [
    path
    for path in (
        REPO / "Makefile",
        REPO / ".github" / "workflows" / "ci.yml",
        REPO / "README.md",
        *sorted((REPO / "docs").glob("*.md")),
        REPO / ".claude" / "skills" / "verify" / "SKILL.md",
    )
    if path.is_file()
]
SCRIPT = re.compile(r"\b((?:benchmarks|examples)/[\w./-]*\w\.py)\b")
MAKE = re.compile(r"\bmake ([a-z][a-z0-9-]*)")
TARGETS = set(re.findall(r"^([a-z][\w-]*):", (REPO / "Makefile").read_text(), flags=re.M))


def _commands(path: pathlib.Path) -> str:
    """The part of a file where ``make x`` is a command, not prose:
    code spans and fences of Markdown, non-comment lines elsewhere."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".md":
        return "\n".join(re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S))
    return "\n".join(
        line for line in text.splitlines() if not line.lstrip().startswith("#")
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_named_scripts_and_make_targets_exist(path):
    text = path.read_text(encoding="utf-8")
    missing = sorted(
        {name for name in SCRIPT.findall(text) if not (REPO / name).is_file()}
        | {f"make {t}" for t in MAKE.findall(_commands(path)) if t not in TARGETS}
    )
    assert not missing, f"{path.relative_to(REPO)} names what does not exist: {missing}"
