"""README's library-layout table names only what its modules define."""
from __future__ import annotations

import importlib
import re
from functools import reduce
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def layout_rows() -> list[tuple[str, list[str]]]:
    """(module, backticked names of its contents) for every row of the
    "Library layout" table, call parentheses stripped."""
    section = README.read_text(encoding="utf-8").split("## Library layout", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = line.split("|")[1:-1]
        module = re.fullmatch(r"\s*`(kgsr[\w.]*)`\s*", cells[0]) if cells else None
        if module:
            names = [name.split("(", 1)[0] for name in re.findall(r"`([^`]+)`", "|".join(cells[1:]))]
            rows.append((module[1], names))
    return rows


def test_every_name_in_the_library_layout_resolves_in_its_module():
    rows = layout_rows()
    assert {module for module, _ in rows} >= {"kgsr.graph", "kgsr.diffusion", "kgsr.scoring", "kgsr.cli"}
    unresolved = []
    for module, names in rows:
        namespace = importlib.import_module(module)
        for name in names:
            if (module, name) == ("kgsr.cli", "kgsr"):  # the command, not an attribute
                continue
            try:
                reduce(getattr, name.split("."), namespace)
            except AttributeError:
                unresolved.append(f"{module}: {name}")
    assert unresolved == []
