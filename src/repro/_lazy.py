"""PEP 562 re-exports: a package's public names, resolved on first use.

A package ``__init__`` that imports its submodules eagerly makes every
``import repro.pkg.leaf`` pay for the whole package (and whatever the
siblings pull in — numpy, ``http.server``, ``multiprocessing``).  The
packages that fan out declare ``{name: defining module}`` instead and
install the two hooks built here, so ``from repro import Lash`` imports
``repro.core.lash`` when it runs and ``import repro.io.codec`` imports
one module.
"""

from __future__ import annotations

from typing import Callable, Mapping


def lazy_exports(
    namespace: dict, exports: Mapping[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for the package whose ``globals()`` is
    ``namespace``.  A resolved name is stored in the namespace, so the
    hook runs once per name."""
    package = namespace["__name__"]

    def __getattr__(name: str) -> object:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        # the import *statement*'s entry point rather than
        # importlib.import_module: only the former is timed by
        # `-X importtime`, and the census of what a command loads
        # (tests/test_import_budget.py) must see these modules too
        defining = __import__(module, fromlist=[name])
        value = namespace[name] = getattr(defining, name)
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | exports.keys())

    return __getattr__, __dir__
