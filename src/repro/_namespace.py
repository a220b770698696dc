"""Lazy package namespaces (PEP 562).

A package ``__init__`` hands :func:`lazy_namespace` its globals and a
table ``{module: "name name ..."}`` (module paths relative to the
package; ``"."`` names submodules of the package itself).  A name is
imported from its defining module on first lookup and then stored in
the package namespace, so later lookups never reach ``__getattr__`` and
importing a package costs nothing until one of its names is used.
"""

import importlib
from typing import Any, Callable, Dict, List, Tuple


def lazy_namespace(namespace: Dict[str, Any], table: Dict[str, str]
                   ) -> Tuple[List[str], Callable[[str], Any],
                              Callable[[], List[str]]]:
    """Return ``(__all__, __getattr__, __dir__)`` for the package."""
    package = namespace["__name__"]
    origin = {name: module for module, names in table.items()
              for name in names.split()}

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        if module == ".":
            value = importlib.import_module("." + name, package)
        else:
            value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return list(origin), __getattr__, __dir__
