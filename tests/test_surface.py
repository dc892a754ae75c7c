"""The runtime package holds no code that only tests use: every module-level
function, class and constant of `lse_precoding` is referenced elsewhere in
the package (two names are exempt), and every method and property of a
package class is read by attribute name outside its own definition. The
package itself defines only `__version__` and imports none of its modules.
No test asserts that an expression equals itself."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import lse_precoding

PACKAGE = Path(lse_precoding.__file__).resolve().parent


def _defined(node: ast.stmt) -> list:
    """Names a module-level statement defines (dunder names aside)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [name for name in names if not name.startswith("__")]


def _referenced(node: ast.AST) -> set:
    """Names read inside a statement, as bare names or as attributes."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def test_every_module_level_name_has_a_package_user():
    definitions = []  # (module, name, statement)
    statements = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            statements.append(node)
            definitions.extend((path.stem, name, node) for name in _defined(node))
    assert len(definitions) > 50  # the scan sees the package
    unused = []
    for module, name, own in definitions:
        # a statement's references to itself (recursion) do not count
        if not any(name in _referenced(node) for node in statements
                   if node is not own):
            unused.append(f"{module}.{name}")
    # the benchmark's tracer (perfbench/tracing.py) wraps these two by name
    # and looks up every name it maps. random_tas_baseline's exemption goes
    # once ROADMAP item 15 gives it a runtime caller, or once item 19
    # deletes the tracer and item 9 moves it to tests/oracles.py;
    # decoupled_sample, left only as the tests' check of
    # replica.decoupled_cdf, goes once item 19 deletes the tracer
    exempt = {"replica.random_tas_baseline", "replica.decoupled_sample"}
    assert [name for name in unused if name not in exempt] == []


def test_every_method_and_property_has_a_package_user():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))]
    # methods and properties, dunders aside; dataclass fields are
    # annotated assignments, not definitions
    methods = [(cls.name, node) for tree in trees for cls in tree.body
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not node.name.startswith("__")]
    assert len(methods) > 5  # the scan sees the package
    reads = [sub for tree in trees for sub in ast.walk(tree)
             if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)]
    unused = []
    for cls, own in methods:
        inside = {id(sub) for sub in ast.walk(own)}
        if not any(sub.attr == own.name and id(sub) not in inside for sub in reads):
            unused.append(f"{cls}.{own.name}")
    assert unused == []


def test_the_package_holds_only_its_version():
    # a docstring, then `__version__ = "..."`, and nothing else
    body = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body
    assert [type(node) for node in body] == [ast.Expr, ast.Assign]
    assert [target.id for target in body[1].targets] == ["__version__"]
    # a fresh interpreter's `import lse_precoding` loads no submodule
    code = ("import sys, lse_precoding; "
            "print(sorted(m for m in sys.modules if m.startswith('lse_precoding.')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_no_assert_compares_an_expression_with_itself():
    # `assert f(x) == f(x)` passes whatever f does, so it checks nothing
    vacuous = []
    for path in sorted(Path(__file__).resolve().parent.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert) and isinstance(node.test, ast.Compare):
                sides = [node.test.left, *node.test.comparators]
                if any(isinstance(op, ast.Eq) and ast.dump(a) == ast.dump(b)
                       for op, a, b in zip(node.test.ops, sides, sides[1:])):
                    vacuous.append(f"{path.name}:{node.lineno}")
    assert vacuous == []
