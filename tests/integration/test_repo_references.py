"""Every script and ``make`` target that the Makefile, CI, the README,
``docs/*.md`` and the verify skill name has to exist, and so does every
``repro`` module the Markdown among them (plus DESIGN.md and
EXPERIMENTS.md) names — so deleting a benchmark, a target or a module
means deleting its mentions in the same change."""

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
        REPO / "DESIGN.md",
        REPO / "EXPERIMENTS.md",
        *sorted((REPO / "docs").glob("*.md")),
        REPO / ".claude" / "skills" / "verify" / "SKILL.md",
    )
    if path.is_file()
]
SCRIPT = re.compile(r"\b((?:benchmarks|examples)/[\w./-]*\w\.py)\b")
MAKE = re.compile(r"\bmake ([a-z][a-z0-9-]*)")
TARGETS = set(re.findall(r"^([a-z][\w-]*):", (REPO / "Makefile").read_text(), flags=re.M))
PACKAGE = REPO / "src" / "repro"
MODULE_PATH = re.compile(r"\brepro/([\w/]+\.py)\b")
DOTTED = re.compile(r"\brepro((?:\.\w+)+)")


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


def _resolves(dotted: str) -> bool:
    """``.a.b.c`` below ``repro``: packages and modules must exist on
    disk; what follows a module is an attribute and is not checked; a
    name read off a package must at least occur in its ``__init__``."""
    here = PACKAGE
    for part in dotted.strip(".").split("."):
        if (here / part).is_dir():
            here = here / part
        elif (here / f"{part}.py").is_file():
            return True
        else:
            init = (here / "__init__.py").read_text(encoding="utf-8")
            return re.search(rf"\b{part}\b", init) is not None
    return True


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.suffix == ".md"], ids=lambda p: p.name
)
def test_named_modules_exist(path):
    text = path.read_text(encoding="utf-8")
    missing = sorted(
        {f"repro/{m}" for m in MODULE_PATH.findall(text) if not (PACKAGE / m).is_file()}
        | {f"repro{d}" for d in DOTTED.findall(_commands(path)) if not _resolves(d)}
    )
    assert not missing, f"{path.relative_to(REPO)} names what does not exist: {missing}"
