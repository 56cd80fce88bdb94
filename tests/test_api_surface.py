"""Static checks of the source tree: no dead public API, no unused imports,
no scipy import anywhere in the package.

The checks parse the files with the standard-library ``ast`` module and
import nothing from the package.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dekrylov"


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def python_files(*dirs):
    return sorted(path for d in dirs for path in (ROOT / d).rglob("*.py"))


def referenced_names(tree):
    """Every identifier used as a name or an attribute in a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def public_definitions(tree):
    """(qualified name, name) of each public top-level function and class
    of a module, and of each public method or property of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member.name


def test_every_public_name_is_reached_outside_tests():
    """Each public top-level function or class, and each public method or
    property of a class, is used by the package, a script or the
    benchmark; a name that only its unit tests call is dead."""
    reached = set()
    for path in python_files("src", "scripts", "perfbench"):
        reached |= referenced_names(parse(path))
    unreached = [
        f"{path.stem}.{qualified}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for qualified, name in public_definitions(parse(path))
        if name not in reached
    ]
    assert not unreached, f"public names reached only by tests: {unreached}"


def test_no_file_imports_a_name_it_never_uses():
    """Re-exports listed in a package's ``__all__`` count as uses."""
    unused = []
    for path in python_files("src", "tests", "scripts"):
        tree = parse(path)
        used = referenced_names(tree)
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            ):
                used |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.relative_to(ROOT)}: {bound}")
    assert not unused, f"unused imports: {unused}"


def test_package_never_imports_scipy():
    """scipy is a test dependency only: no module, function body or
    conditional branch of the package imports it."""
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == "scipy" or m.startswith("scipy.") for m in modules):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"scipy imports: {offenders}"
