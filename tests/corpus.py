"""The example theories bundled with the package (``defeasidl/corpus/*.dfl``)."""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from defeasidl.parser import parse_theory
from defeasidl.theory import DefeasibleTheory

_DIR = resources.files("defeasidl") / "corpus"


def names() -> list[str]:
    return sorted(p.name[: -len(".dfl")] for p in _DIR.iterdir() if p.name.endswith(".dfl"))


def path(name: str) -> Path:
    target = _DIR / f"{name}.dfl"
    if not target.is_file():
        raise FileNotFoundError(f"no bundled theory named {name!r}")
    return Path(str(target))


def load(name: str) -> DefeasibleTheory:
    parsed = parse_theory(path(name).read_text(encoding="utf-8"))
    if isinstance(parsed, list):
        raise ValueError(f"bundled theory {name!r} does not parse: {parsed[0]}")
    return parsed
