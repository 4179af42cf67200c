"""CI gate for the public API surface.

Fails (exit 1) when:

* any name in ``repro.__all__`` / ``repro.api.__all__`` /
  ``repro.schema.__all__`` does not resolve (a broken re-export would
  otherwise only surface in user code);
* resolving the *non*-legacy surface emits a ``DeprecationWarning``
  (the facade must not be built on its own deprecated shims);
* any ``from repro... import name``, ``import repro...`` or
  ``repro.<name>`` use in a file under ``examples/`` does not resolve,
  or resolves through a deprecation shim — the examples are the
  documentation of record, so a name removed from the package (the
  3.0 removals included) fails here, not in a user's hands.

Run from the repository root: ``PYTHONPATH=src python
tools/check_api_surface.py``.
"""

import ast
import importlib
import pathlib
import sys
import warnings


def resolve(module_name: str, name: str):
    """Why ``from module_name import name`` fails, or None if it works.

    A submodule counts as a name.  A ``DeprecationWarning`` emitted
    while resolving the name is a failure too.
    """
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        return f"module {module_name} does not import: {exc}"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if not hasattr(module, name):
            try:
                importlib.import_module(f"{module_name}.{name}")
            except ImportError:
                return f"{module_name}.{name} does not resolve"
    for warning in caught:
        if issubclass(warning.category, DeprecationWarning):
            return (
                f"{module_name}.{name} resolves through a deprecated "
                f"path: {warning.message}"
            )
    return None


def check_surface() -> list:
    failures = []
    for module_name in ("repro", "repro.api", "repro.schema"):
        module = importlib.import_module(module_name)
        for name in module.__all__:
            why = resolve(module_name, name)
            if why is not None:
                failures.append(f"{module_name}.__all__: {why}")
    return failures


def example_uses(tree: ast.AST):
    """``(line, module, name)`` for every repro name a file uses."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level:
            if (node.module or "").split(".")[0] == "repro":
                for alias in node.names:
                    yield node.lineno, node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                module, _, name = alias.name.rpartition(".")
                if alias.name.split(".")[0] == "repro" and module:
                    yield node.lineno, module, name
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "repro"
        ):
            yield node.lineno, "repro", node.attr


def check_examples(root: pathlib.Path):
    failures = []
    n_uses = 0
    for path in sorted((root / "examples").glob("*.py")):
        rel = path.relative_to(root)
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, module, name in example_uses(tree):
            n_uses += 1
            why = (
                "a star import cannot be checked"
                if name == "*"
                else resolve(module, name)
            )
            if why is not None:
                failures.append(f"{rel}:{line}: {why}")
    return failures, n_uses


def main() -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    example_failures, n_uses = check_examples(root)
    failures = check_surface() + example_failures
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(
        f"API surface OK: repro, repro.api, repro.schema resolve; all "
        f"{n_uses} repro imports and attribute uses in examples/ resolve"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
