import ast
from pathlib import Path

import wtgc

PUBLIC = [
    "ARCTIC", "BOOLEAN", "IntegersMod", "NATURAL", "Production",
    "RankedAlphabet", "TROPICAL", "Tree", "Wtgc", "WtgcError", "classify",
    "derivations", "eq_restriction", "evaluate", "leaf", "parse_grammar",
    "parse_hom", "parse_term", "semiring_from_name", "serialize_grammar",
    "state_weight", "support_hom",
]

# module-level functions that nothing in the package calls, and why each
# stays anyway
UNCALLED = {
    "decision.is_support_finite": "the yes/no form of finiteness_analysis",
    "syntax.serialize_hom": "the writer that parse_hom reads back",
    "homomorphism.apply": "the reference implementation preimage inverts",
    "decision.enumerate_support": "the bounded oracle of both decisions",
}


def test_public_api_is_pinned():
    assert wtgc.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(wtgc, name) is not None


def test_every_function_is_called_in_the_package():
    # code that only tests use is dead weight: each module-level function
    # must be named somewhere in the package outside its own body, or be
    # public, or be listed above
    modules = {path.stem: ast.parse(path.read_text())
               for path in Path(wtgc.__file__).parent.glob("*.py")}
    named = {}  # name -> ids of the nodes naming it
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                named.setdefault(node.attr, set()).add(id(node))
    uncalled = set()
    for module, tree in modules.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name in PUBLIC:
                continue
            own = {id(node) for node in ast.walk(fn)}
            if not named.get(fn.name, set()) - own:
                uncalled.add(f"{module}.{fn.name}")
    assert uncalled == set(UNCALLED)


def test_only_term_str_calls_itself():
    # deep trees must not cost a Python frame per level.  `term_str`
    # still does: the benchmark's depth ladder runs it before reading
    # peak memory, so an iterative printer would move that metric
    recursive = set()
    for path in Path(wtgc.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        methods = {id(fn) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or id(fn) in methods:
                continue
            if any(isinstance(node, ast.Name) and node.id == fn.name
                   for node in ast.walk(fn)):
                recursive.add(f"{path.stem}.{fn.name}")
    assert recursive == {"trees.term_str"}
