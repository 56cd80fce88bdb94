"""Static checks of the source tree: no dead public API, no unused imports,
no scipy import and no log-gamma anywhere in the package, no
verification-only reference in a module that the scans import, and every
name the benchmark harness reads from the package is still where the
harness looks for it.

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


def test_binomial_weights_have_one_home():
    """No module reaches math.lgamma or np.vectorize, by attribute or by a
    from-import: every binomial weight comes from models.log_binomial_pmf."""
    banned = {("math", "lgamma"), ("np", "vectorize"), ("numpy", "vectorize")}
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [(node.value.id, node.attr)]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "", alias.name) for alias in node.names]
            else:
                continue
            offenders += [
                f"{path.name}:{node.lineno} {a}.{b}" for a, b in names if (a, b) in banned
            ]
    assert not offenders, f"log-gamma or vectorized binomials: {offenders}"


def top_level_functions(module):
    tree = parse(PACKAGE / f"{module}.py")
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_verify_only_references_live_in_oracle():
    """The references that only verify and the tests compare against (the
    per-site spins, the dense reduced diagonal, the Kramers-Wannier dual,
    the exact NN moments and the area- and volume-law limits) are defined
    in oracle, and none of the scan modules models, evolve and wigner
    defines one of them."""
    verify_only = {
        "site_spins",
        "reduced_diagonal",
        "kw_transform_nn",
        "area_law_psi",
        "area_law_k",
        "volume_law_k",
        "survival_moments_nn",
        "psi_ir_asymptotic_profile",
    }
    assert verify_only <= top_level_functions("oracle")
    for module in ("models", "evolve", "wigner"):
        assert not verify_only & top_level_functions(module), module


def row_max_subtractions(tree):
    """(function, line) of each subtraction of a maximum taken along an axis,
    directly (``x - y.max(axis=1)``, ``x -= np.max(y, 1)[:, None]``) or
    through a name that the function bound to one: the shift half of an
    open-coded shift-and-exp over a block of logs."""

    def is_row_max(node):
        while isinstance(node, ast.Subscript):
            node = node.value
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in {"max", "amax"}
        ):
            return False
        on_numpy = isinstance(node.func.value, ast.Name) and node.func.value.id in {"np", "numpy"}
        return any(k.arg == "axis" for k in node.keywords) or len(node.args) > on_numpy

    found = set()
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        bound = {
            target.id
            for node in ast.walk(function)
            if isinstance(node, ast.Assign) and is_row_max(node.value)
            for target in node.targets
            if isinstance(target, ast.Name)
        }

        def shifts(node):
            while isinstance(node, ast.Subscript):
                node = node.value
            return is_row_max(node) or (isinstance(node, ast.Name) and node.id in bound)

        for node in ast.walk(function):
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Sub):
                subtrahend = node.value
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
                subtrahend = node.right
            else:
                continue
            if shifts(subtrahend):
                found.add((function.name, node.lineno))
    return sorted(found)


def test_shifted_logs_are_exponentiated_only_through_exp_from_max():
    """lintri.exp_from_max is the one place that shifts a block of logs by
    its row maxima and exponentiates it, so that no kernel pays np.exp's
    subnormal path for values too small to count.  The three kernels that
    need it call it, and no other function subtracts a maximum taken along
    an axis.  A maximum over a whole vector, as in the final normalization
    of a wavepacket over its L/2 + 1 printed amplitudes, is no row shift."""
    sample = ast.parse(
        "def f(logs):\n"
        "    logs -= logs.max(axis=1, keepdims=True)\n"
        "    return np.exp(logs)\n"
        "def g(logs):\n"
        "    top = np.max(logs, 1)\n"
        "    return np.exp(logs - top[:, None]), logs - logs.max()\n"
    )
    assert row_max_subtractions(sample) == [("f", 2), ("g", 6)]
    offenders = [
        f"{path.name}:{line} in {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name, line in row_max_subtractions(parse(path))
        if (path.stem, name) != ("lintri", "exp_from_max")
    ]
    assert not offenders, f"open-coded shifts by a row maximum: {offenders}"
    kernels = {
        "lintri": "expm_from_eig",
        "evolve": "ir_magnetization_sums",
        "wigner": "psi_ir_exact_profile",
    }
    for module, kernel in kernels.items():
        (function,) = (
            node
            for node in parse(PACKAGE / f"{module}.py").body
            if isinstance(node, ast.FunctionDef) and node.name == kernel
        )
        assert "exp_from_max" in referenced_names(function), f"{module}.{kernel}"


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
