"""Lazy package exports (PEP 562): a name's submodule loads on first use.

Every package ``__init__`` except :mod:`repro.experiments` (whose
imports register the experiments) names its public surface in one table
of ``submodule -> public names`` and imports nothing itself, so a
process that drives a vehicle loads only the modules the drive executes::

    from .._lazy import lazy_exports

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "canbus": ("CanBus", "CanMessage"),
        "sov": ("DriveResult", "SovConfig", "SystemsOnAVehicle"),
    })

Reading ``package.CanBus`` (or ``from package import CanBus``) imports
``package.canbus`` and caches the object in the package's globals, so
the next read never reaches ``__getattr__``.  Any other attribute that
names a submodule resolves by importing it (``repro.cloud.compression``
works before anything imported it), so a table entry whose name equals
its submodule exports the submodule itself, as the top-level package's
entries do.  An unknown name raises :class:`AttributeError`; a
:class:`ModuleNotFoundError` for any module other than the one asked for
propagates unchanged.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for *package* from *table*."""
    home: Dict[str, str] = {
        name: submodule for submodule, names in table.items() for name in names
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        submodule = home.get(name, name)
        qualified = f"{package}.{submodule}"
        try:
            module = importlib.import_module(qualified)
        except ModuleNotFoundError as exc:
            if exc.name != qualified:
                raise
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = module if submodule == name else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__, list(home)
