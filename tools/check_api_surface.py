#!/usr/bin/env python3
"""CI gate for the public API surface.

Fails (exit 1) when:

* any name in ``repro.__all__`` / ``repro.api.__all__`` /
  ``repro.schema.__all__`` does not resolve (a broken re-export would
  otherwise only surface in user code);
* resolving the *non*-legacy surface emits a ``DeprecationWarning``
  (the facade must not be built on its own deprecated shims);
* any file under ``examples/`` still imports a deprecated path — the
  examples are the documentation of record for the new surface.

Run from the repository root: ``PYTHONPATH=src python
tools/check_api_surface.py``.
"""

import ast
import importlib
import pathlib
import re
import sys
import warnings

#: Imports retired by the 2.0 facade and removed in 3.0 (see README's
#: "removed in 3.0" table): module → names that must not be imported
#: from it.  Examples must use ``repro.api`` / the defining modules
#: instead.  Detection is AST-based, so parenthesized multi-line imports
#: and aliases are caught the same as single-line ones.
DEPRECATED_IMPORTS = {
    "repro": {
        "DominoDetector",
        "DominoStats",
        "TelemetryBundle",
        "Timeline",
        "parse_chains",
    },
    "repro.api": {"JournaledClusterBackend"},
    "repro.api.backends": {"JournaledClusterBackend"},
    "repro.fleet": {"run_campaign"},
    "repro.fleet.executor": {"run_campaign", "OUTCOME_FORMAT_VERSION"},
}

#: Attribute-style uses of the legacy surface (``repro.DominoDetector``).
DEPRECATED_ATTR_PATTERN = re.compile(
    r"\brepro\.(DominoDetector|DominoStats|TelemetryBundle"
    r"|Timeline|parse_chains)\b"
)


def check_surface() -> list:
    failures = []
    for module_name in ("repro", "repro.api", "repro.schema"):
        module = importlib.import_module(module_name)
        for name in module.__all__:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    getattr(module, name)
                except AttributeError:
                    failures.append(
                        f"{module_name}.__all__ lists {name!r} but it does "
                        f"not resolve"
                    )
                    continue
            deprecations = [
                w
                for w in caught
                if issubclass(w.category, DeprecationWarning)
            ]
            if deprecations:
                failures.append(
                    f"{module_name}.{name} resolves through a deprecated "
                    f"path: {deprecations[0].message}"
                )
    return failures


def check_examples(root: pathlib.Path) -> list:
    failures = []
    for path in sorted((root / "examples").glob("*.py")):
        text = path.read_text()
        rel = path.relative_to(root)
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            banned = DEPRECATED_IMPORTS.get(node.module or "", ())
            for alias in node.names:
                if alias.name in banned or alias.name == "*":
                    failures.append(
                        f"{rel}:{node.lineno}: deprecated import "
                        f"'from {node.module} import {alias.name}' — use "
                        f"repro.api (see README \"removed in 3.0\" table)"
                    )
        match = DEPRECATED_ATTR_PATTERN.search(text)
        if match:
            line = text[: match.start()].count("\n") + 1
            failures.append(
                f"{rel}:{line}: deprecated attribute use "
                f"{match.group(0)!r} — use repro.api (see README "
                f"\"removed in 3.0\" table)"
            )
    return failures


def main() -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    failures = check_surface() + check_examples(root)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("API surface OK: repro, repro.api, repro.schema resolve; no "
          "example imports a deprecated path")
    return 0


if __name__ == "__main__":
    sys.exit(main())
