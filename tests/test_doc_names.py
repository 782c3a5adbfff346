"""Every ``repro`` name the prose documents cite still exists.

DESIGN.md, README.md and EXPERIMENTS.md name modules and objects in two
forms: dotted paths (``repro.core.timeseries``,
``repro.sim.Engine``) and the ``from repro.x import a, b`` lines of
their code samples.  Each must resolve: the longest importable module
prefix, then ``getattr`` for the rest.  A rename or deletion that
leaves a document behind fails here, naming the file and the name.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md")

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
DOTTED = re.compile(rf"\brepro(?:\.{_IDENT})+")
FROM_IMPORT = re.compile(rf"^\s*from (repro(?:\.{_IDENT})*) import ([\w, ]+)$", re.M)


def _cited(text: str) -> set[str]:
    names = set(DOTTED.findall(text))
    for module, imported in FROM_IMPORT.findall(text):
        names.update(f"{module}.{n.strip()}" for n in imported.split(",") if n.strip())
    return names


def _resolves(name: str) -> bool:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


CITED = sorted((doc, name) for doc in DOCS for name in _cited((ROOT / doc).read_text()))


def test_documents_cite_names():
    assert len({name for _doc, name in CITED}) >= 30


@pytest.mark.parametrize("doc,name", CITED, ids=[f"{d}:{n}" for d, n in CITED])
def test_cited_name_resolves(doc, name):
    assert _resolves(name), f"{doc} cites {name}, which does not resolve"
