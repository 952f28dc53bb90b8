"""The executor registry: substrates by name, mirroring ``networks.by_name``.

Third-party substrates subclass :class:`~repro.exec.Substrate` and call
``register_executor("mpi", MPISubstrate)``, as the shipped ones do.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    from repro.exec.local import Substrate

__all__ = ["register_executor", "by_executor", "executors", "EXECUTORS"]

#: name -> factory returning a ready substrate instance.
EXECUTORS: "dict[str, Callable[..., Substrate]]" = {}

_registry_lock = threading.Lock()


def register_executor(name: str, factory: "Callable[..., Substrate]") -> None:
    """Register (or replace) a substrate factory under ``name``."""
    with _registry_lock:
        EXECUTORS[name] = factory


def executors() -> tuple[str, ...]:
    """Sorted names of every registered executor."""
    return tuple(sorted(EXECUTORS))


def by_executor(name: str, **kwargs: Any) -> "Substrate":
    """Instantiate a registered substrate by name (keywords to the factory)."""
    if name not in EXECUTORS:
        raise ValueError(
            f"unknown executor {name!r}; choose from {', '.join(executors())}"
        )
    return EXECUTORS[name](**kwargs)
