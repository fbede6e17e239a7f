"""Every code name the design documents cite still exists.

DESIGN.md and README.md point into the code by backticked dotted names
(``repro.core.exchange.step_rank``, or short, rooted at a subpackage:
``core.spmd``) and by file paths (``core/stack.py``).  A deletion or
rename that leaves such a pointer behind fails here, not at the next
re-read of the documents.  A dotted name resolves by importing its
longest module prefix and reading the rest as attributes (a short name
as ``repro.<name>``); a ``*.py`` path resolves from the repository
root, ``src/``, ``src/repro/``, or as the tail of any path in the tree.
The benchmark's metric names (``lbm.collide_ms``) look like short names
but name no code: the ones ``BENCHMARK.json`` lists are skipped.
"""

import importlib
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("DESIGN.md", "README.md")
SPAN = re.compile(r"`([^`\n]+)`")
DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
SHORT = re.compile(r"(?<![\w./])(?:core|lbm|gpu|net|perf|urban|viz|solvers)"
                   r"(?:\.[A-Za-z_]\w*)+")
PATH = re.compile(r"[\w./-]*\w\.py\b")


def _metrics() -> set[str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for key in ("end_to_end", "per_layer")
            for m in bench[key]}


def _spans(doc):
    return SPAN.findall((ROOT / doc).read_text())


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def _tree_paths() -> set[str]:
    return {p.relative_to(ROOT).as_posix() for p in ROOT.rglob("*.py")
            if not any(part.startswith(".") for part in p.parts)}


def _path_exists(path: str, tree: set[str]) -> bool:
    path = path.removeprefix("./")
    if any((ROOT / base / path).is_file() for base in ("", "src", "src/repro")):
        return True
    return any(t == path or t.endswith("/" + path) for t in tree)


def test_every_cited_name_and_path_exists():
    tree = _tree_paths()
    metrics = _metrics()
    stale = []
    for doc in DOCS:
        spans = _spans(doc)
        names = {m for span in spans for m in DOTTED.findall(span)}
        names |= {"repro." + m for span in spans for m in SHORT.findall(span)
                  if m not in metrics}
        paths = {m for span in spans for m in PATH.findall(span)}
        assert names and paths, f"{doc} cites no repro.* name or *.py path"
        stale += [f"{doc}: {n}" for n in sorted(names) if not _resolves(n)]
        stale += [f"{doc}: {p}" for p in sorted(paths)
                  if not _path_exists(p, tree)]
    assert not stale, "stale names in the docs:\n" + "\n".join(stale)
