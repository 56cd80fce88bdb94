"""Static checks of the source tree: no dead public API, no unused imports,
no scipy import anywhere in the package, and every name the benchmark
harness reads from the package is still where the harness looks for it.

The checks parse the files with the standard-library ``ast`` module.  Only
the benchmark check imports the package, to look up the names it found.
"""

import ast
import importlib
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


SUBMODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


def package_reads(tree):
    """(module, attribute) pairs a file reads from the package: the names it
    imports from ``dekrylov`` or a module of it, and the attributes it reads
    from a name bound to one of them.  Module "" is the package."""
    bound = {}
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update({a.asname or a.name: "" for a in node.names if a.name == "dekrylov"})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dekrylov":
            home = node.module.partition(".")[2]
            for alias in node.names:
                if not home and alias.name in SUBMODULES:
                    bound[alias.asname or alias.name] = alias.name
                else:
                    reads.add((home, alias.name))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
            and not node.attr.startswith("__")
        ):
            reads.add((bound[node.value.id], node.attr))
    return reads


def assigned_values(tree):
    """The value expression of each top-level ``NAME = ...`` of a module."""
    return {
        target.id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def test_benchmark_reads_still_resolve():
    """perfbench/ is not collected with these tests, so a refactor that
    moves a name the harness uses would pass here and break only the
    benchmark.  Every attribute that child.py,
    make_reference.py and test_harness.py read from the package or its
    modules must exist there, and every span the harness traces
    (child.TARGETS, workloads.SPAN_EXPECTATIONS) must name a module of the
    package and, after the dot, a function defined in it."""
    bench = ROOT / "perfbench"
    missing = []
    for name in ("child.py", "make_reference.py", "test_harness.py"):
        reads = package_reads(parse(bench / name))
        assert reads, f"{name} reads nothing from dekrylov"
        missing += [
            f"{name}: " + ".".join(filter(None, ("dekrylov", module, attr)))
            for module, attr in sorted(reads)
            if not hasattr(importlib.import_module(f"dekrylov.{module}".rstrip(".")), attr)
        ]
    child = assigned_values(parse(bench / "child.py"))
    scan_commands = ast.literal_eval(child["SCAN_COMMANDS"])
    spans = set(
        eval(  # a tuple literal plus one f-string generator over SCAN_COMMANDS
            compile(ast.Expression(child["TARGETS"]), "child.py", "eval"),
            {"__builtins__": {"tuple": tuple}, "SCAN_COMMANDS": scan_commands},
        )
    )
    expectations = ast.literal_eval(
        assigned_values(parse(bench / "workloads.py"))["SPAN_EXPECTATIONS"]
    )
    for lists in expectations.values():
        spans.update(span for names in lists.values() for span in names)
    for span in sorted(spans):
        module, _, function = span.partition(".")
        if module not in SUBMODULES:
            missing.append(f"span {span}")
        elif function:
            home = importlib.import_module(f"dekrylov.{module}")
            # The tracer wraps the functions a module defines, not those it imports.
            if getattr(getattr(home, function, None), "__module__", None) != home.__name__:
                missing.append(f"span {span}")
    assert not missing, f"names the benchmark reads are gone: {missing}"
