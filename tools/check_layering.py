#!/usr/bin/env python
"""Layering gate: query-side code must not import storage internals.

The Engine/Session/Backend split (DESIGN §11) puts every physical concern —
the columnar node table, the inverted index, document statistics — behind
the :class:`repro.backend.StorageBackend` seam.  The query-side packages
(``repro.topk``, ``repro.plans``, ``repro.stats``) may import the backend
package root and the shared id-kernels, but never the concrete storage
classes or modules; a direct import would quietly re-couple the layers and
break every non-default backend.

This script walks the AST of each module under the guarded packages and
fails (exit 1, one line per violation) on:

- ``import``/``from`` of a banned *module* (e.g. ``repro.ir.index``,
  ``repro.backend.memory``, ``repro.xmltree.storage``);
- ``from <anywhere> import <banned name>`` for the concrete storage
  classes (``NodeTable``, ``ColumnarStore``, ``InvertedIndex``,
  ``DocumentStatistics``, ``InMemoryBackend``, ``TagDictionary``,
  ``Posting``, ``ShardedBackend``);
- the reverse direction: modules under ``repro.backend`` (including the
  sharded topology in ``backend/sharded.py``) importing query-side
  packages (``repro.topk``, ``repro.plans``, ``repro.sharding``, the
  engine/session facades, ...) — storage must not reach back up.

Every import counts, wherever it sits — inside a function, a class or a
module-level ``__getattr__`` (PEP 562) alike: a lazy re-export still ties
the guarded package to the storage class it hands out.

Run directly (``python tools/check_layering.py``) or through the pytest
wrapper in ``tests/test_layering.py``; CI runs both.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Packages that must stay physical-storage-agnostic.
GUARDED_PACKAGES = ("topk", "plans", "stats")

#: Modules the gate must actually have walked, relative to ``repro/``.
#: The physical-plan lowering and the cost-model seam were introduced
#: *because* they sit on the guarded side of the seam (the cost model sees
#: only the statistics protocol, never a storage class); if either file is
#: moved out of a guarded package the bidirectional guarantee silently
#: lapses, so their absence is itself a violation.
REQUIRED_GUARDED_MODULES = (
    "plans/cost.py",
    "plans/physical.py",
)

#: Modules whose import from guarded code pierces the seam.
BANNED_MODULES = {
    "repro.xmltree.document",
    "repro.xmltree.storage",
    "repro.ir.index",
    "repro.ir.storage",
    "repro.backend.memory",
    "repro.backend.stats",
    "repro.backend.sharded",
}

#: Concrete storage names that must not be imported by name either.
BANNED_NAMES = {
    "NodeTable",
    "ColumnarStore",
    "InvertedIndex",
    "DocumentStatistics",
    "InMemoryBackend",
    "TagDictionary",
    "Posting",
    "ShardedBackend",
}

#: Backend modules guarded code MAY import (the seam itself).
ALLOWED_MODULES = {
    "repro.backend",
    "repro.backend.base",
    "repro.backend.kernels",
}

#: The reverse direction: the storage layer (``repro.backend``, including
#: the sharded coordinator's storage half) sits *below* the Engine/Session
#: split, so it must never import query-side packages back — an upward
#: import would make the layers circular and couple every backend to the
#: planner.  Prefix match: ``repro.topk.dpo`` trips on ``repro.topk``.
BACKEND_BANNED_PREFIXES = (
    "repro.topk",
    "repro.plans",
    "repro.stats",
    "repro.relax",
    "repro.rank",
    "repro.sharding",
    "repro.compiled",
    "repro.engine",
    "repro.session",
)


def _module_violations(path, tree):
    """Yield ``(lineno, message)`` for every banned import in one module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in BANNED_MODULES:
                    yield node.lineno, "imports banned module %r" % alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                # Relative import: resolve against the package the file
                # lives in so "from .storage import X" is caught too.
                parts = path.parts
                anchor = parts[parts.index("repro"): -1]
                base = list(anchor[: len(anchor) - node.level + 1])
                module = ".".join(base + ([module] if module else []))
            if module in BANNED_MODULES:
                yield node.lineno, "imports from banned module %r" % module
                continue
            allowed = module in ALLOWED_MODULES
            for alias in node.names:
                if alias.name in BANNED_NAMES and not allowed:
                    yield (
                        node.lineno,
                        "imports banned name %r from %r" % (alias.name, module),
                    )


def _backend_violations(path, tree):
    """Yield upward imports (storage → query side) in one backend module."""

    def banned(module):
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in BACKEND_BANNED_PREFIXES
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if banned(alias.name):
                    yield (
                        node.lineno,
                        "storage layer imports query-side module %r"
                        % alias.name,
                    )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "repro.backend" + ("." + module if module else "")
            if banned(module):
                yield (
                    node.lineno,
                    "storage layer imports query-side module %r" % module,
                )


def check(src_root):
    """All layering violations under ``src_root`` as printable strings."""
    violations = []
    walked = set()
    for package in GUARDED_PACKAGES:
        for path in sorted((src_root / "repro" / package).rglob("*.py")):
            walked.add(path.relative_to(src_root / "repro").as_posix())
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for lineno, message in _module_violations(path, tree):
                violations.append("%s:%d: %s" % (path, lineno, message))
    for required in REQUIRED_GUARDED_MODULES:
        if required not in walked:
            violations.append(
                "%s: required guarded module not found under %s"
                % (required, src_root / "repro")
            )
    backend_root = src_root / "repro" / "backend"
    if backend_root.is_dir():
        for path in sorted(backend_root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for lineno, message in _backend_violations(path, tree):
                violations.append("%s:%d: %s" % (path, lineno, message))
    return violations


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    src_root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    violations = check(src_root)
    for violation in violations:
        print(violation, file=sys.stderr)
    if violations:
        print(
            "layering gate: %d violation(s) — topk/plans/stats must go"
            " through repro.backend" % len(violations),
            file=sys.stderr,
        )
        return 1
    print("layering gate: ok (topk/plans/stats import no storage internals)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
