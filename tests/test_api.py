"""The package surface: every public function and class in ``src/srrw`` has a
caller outside the tests, and ``srrw.__all__`` names each export once.

A name counts as used when it appears, outside its own definition, in
``src/srrw`` (apart from ``__init__.py``), ``demos/``, ``bench/``, ``tools/``
or ``README.md``.  In Python files that means a name, an attribute or a string
constant equal to it (``bench/tracer.py`` names the functions it times by
string); in the README, the name as a word.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import srrw

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "srrw"

# Independent reference routes: nothing shipped calls them, and each is the
# second route of a check on shipped code.
KEEP = {
    "basis_eval": "signed-basis R_n from lambda_rows, exact against "
                  "poly_sequence in Fractions",
    "poly_sequence": "monomial recursion for R_n; eval_stable and "
                     "basis_eval are checked against it",
    "iid_convolution": "alpha = 0 convolution power, a second route for "
                       "exact_distribution",
    "isolated_distribution_bruteforce": "forest enumeration, a second route "
                                        "for exact_isolated_distribution",
    "decay_bound_check": "pointwise decay bound, checked against "
                         "decay_bound_sweep",
    "all_clusters_even_probability": "forest Monte Carlo of the central "
                                     "coefficient behind z2_return_gap",
    "is_class_function": "the only check that the class-function-decay law "
                         "is conjugation invariant",
    "next_step_distribution": "exact one-step law, checked against "
                              "sample_walk's step frequencies",
    "parse_csv": "inverse of csv_bytes: the artifact round trip, and how "
                 "the tests read every CLI artifact",
}


def _python_files():
    yield from sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    for sub in ("demos", "bench", "tools"):
        yield from sorted((ROOT / sub).rglob("*.py"))


def _names(node, skip=None) -> set:
    """Names, attributes and identifier-like string constants under node,
    leaving out the subtree ``skip``."""
    out, stack = set(), [node]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unreferenced(keep=KEEP) -> list:
    """Public module-level definitions in src/srrw that nothing uses."""
    trees = {path: ast.parse(path.read_text()) for path in _python_files()}
    readme = (ROOT / "README.md").read_text()
    used = {path: _names(tree) for path, tree in trees.items()}
    dead = []
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") or name in keep:
                continue
            if name in _names(tree, skip=node):
                continue
            if any(name in names for p, names in used.items() if p != path):
                continue
            if re.search(rf"\b{re.escape(name)}\b", readme):
                continue
            dead.append(f"{path.stem}.{name}")
    return dead


def test_every_public_definition_has_a_caller():
    assert unreferenced() == []


def test_keep_list_holds_only_uncalled_definitions():
    # a kept name that gained a caller, or was deleted, leaves the list
    assert sorted(d.split(".")[1] for d in unreferenced(keep={})) == sorted(
        KEEP)


def test_all_exports_exist_once():
    counts = Counter(srrw.__all__)
    assert [name for name, c in counts.items() if c > 1] == []
    assert [name for name in srrw.__all__ if not hasattr(srrw, name)] == []
