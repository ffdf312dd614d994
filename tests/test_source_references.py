"""Every top-level function and class in src/k3cert has a caller in
src/k3cert, and every method and property outside the dunder protocol is
read as an attribute there: code that only tests reach is deleted, not
kept.  Public entry points may be exempt, with a reason; private helpers
and methods never are."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "k3cert"

# public entry points with no caller in src/, each with its reason
ALLOWED = {
    ("exactlinalg", "smith_normal_form"): "acceptance criterion 5 checks its transforms",
    ("spectral", "count_real_roots"): "the Sturm entry point the sympy tests check",
    ("cases", "qbasis_check"): "entry point for perfbench/ and scripts/",
    ("cases", "mutation_kit"): "entry point for perfbench/ and scripts/",
    ("cases", "run_mutation"): "entry point for perfbench/ and scripts/",
    ("cli", "main"): "the console script",
}


def _trees():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _definitions_without_reference(private):
    """The public (or private) top-level functions and classes of
    src/k3cert that nothing outside their own body reads, and the set of
    all such definitions."""
    trees = _trees()
    # where each name is read: a Name in Load context, or an attribute read
    # off a k3cert module such as spectral.entropy.  A name that is only
    # bound (a dataclass field, an assignment target) and an attribute of
    # any other object (report.salem_factor) do not count, nor do strings.
    references = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name) and node.value.id in trees):
                name = node.attr
            else:
                continue
            references.setdefault(name, []).append((module, node.lineno))
    defined = set()
    orphans = []
    for module, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_") != private):
                continue
            defined.add((module, node.name))
            outside = [ref for ref in references.get(node.name, [])
                       if not (ref[0] == module
                               and node.lineno <= ref[1] <= node.end_lineno)]
            if not outside:
                orphans.append((module, node.name))
    return orphans, defined


def test_every_public_definition_has_a_caller_in_src():
    orphans, defined = _definitions_without_reference(private=False)
    assert [f"{module}.{name}" for module, name in orphans if (module, name) not in ALLOWED] == []
    assert set(ALLOWED) <= defined


def test_every_private_definition_has_a_reference_in_src():
    # a private helper is never an entry point, so it has no exemptions
    orphans, _ = _definitions_without_reference(private=True)
    assert [f"{module}.{name}" for module, name in orphans] == []


def test_every_method_is_read_as_an_attribute_in_src():
    # a dunder runs through its protocol (+, ==, hash), so only other
    # methods and properties count; a read inside the method's own body
    # (recursion) does not
    trees = _trees()
    reads = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append((module, node.lineno))
    orphans = []
    for module, tree in trees.items():
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("__"):
                    continue
                outside = [ref for ref in reads.get(node.name, [])
                           if not (ref[0] == module
                                   and node.lineno <= ref[1] <= node.end_lineno)]
                if not outside:
                    orphans.append(f"{module}.{cls.name}.{node.name}")
    assert orphans == []
