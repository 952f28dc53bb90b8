"""Persistent cell-hash result store: the plan run's cell-level pre-pass.

Every cell of a declarative plan is a pure function of its
:class:`~repro.api.plan.PlanCell` fields and of the code that measures
it, so its row can be cached across processes and machines.
:func:`cell_keys` hashes every declarative field plus the ``check`` flag
and a fingerprint of the package's own source (:func:`_fingerprint`):
editing any module that can change a measured quantity invalidates
every stored row, while a version bump alone does not.  Cells that are
not pure functions of their declaration are never cached:
``@``-sourced cells, cells holding
:class:`~repro.networks.policy.RoutingPolicy` instances, cells with
non-JSON params, and machine cells of plans with custom machine
builders.

:class:`ResultStore` is one sqlite table (``key -> row JSON``, keyed
``WITHOUT ROWID``) whose reads never write.
``ExperimentPlan.run(store=...)`` consults it before compiling the
stage graph (:func:`store_hits`): the whole plan is keyed in one pass
and its hits read in a few batched queries; hits skip emission, folds,
routes and sims; only the misses reach the graph, and their rows are
stored on the way out.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sqlite3
import threading
from dataclasses import fields
from operator import attrgetter
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.api.plan import PlanCell
from repro.util import sanitize
from repro.util.caches import Counters

__all__ = [
    "cell_key", "cell_keys", "ResultStore", "store_hits",
]

#: Hit/miss counters summed over every result store (the ``store`` entry
#: of ``repro.cache_stats()``; clearing them leaves the stored rows alone).
STORE_COUNTERS = Counters("store", "hits", "misses")


def _fingerprint(root: Path) -> str:
    """sha256 over the relative path and bytes of every ``.py`` file under
    the package ``root``, except the top-level ``__init__.py`` (re-exports
    and ``__version__``), ``__main__.py`` (the CLI) and ``lint/``."""
    digest = hashlib.sha256()
    sources = sorted(
        (path.relative_to(root).as_posix(), path) for path in root.rglob("*.py")
    )
    for rel, path in sources:
        if rel in ("__init__.py", "__main__.py") or rel.startswith("lint/"):
            continue
        data = path.read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


@functools.cache
def _code_fingerprint() -> str:
    """This process's package fingerprint, hashed on the first key."""
    return _fingerprint(Path(__file__).resolve().parents[1])


_NAMES = tuple(f.name for f in fields(PlanCell))
_FIELDS = attrgetter(*_NAMES)
_PARAMS = _NAMES.index("params")
_POLICY = _NAMES.index("policy")
# Field types whose repr is already canonical.  ``tuple`` is here only
# for ``params``, which the fast path requires to be empty.
_PLAIN = frozenset({str, int, float, bool, type(None), tuple})
_SCALARS = (bool, int, float, str)


def _plain(x: Any) -> Any:
    """The builtin twin of a JSON-able value: numpy scalars become Python
    scalars, lists tuples, dicts sorted dicts; anything else raises
    ``TypeError`` (or ``ValueError`` from a non-scalar ``.item()``)."""
    if x is None:
        return x
    for base in _SCALARS:
        if isinstance(x, base):
            return str.__str__(x) if base is str else base(x)
    if isinstance(x, (list, tuple)):
        return tuple(_plain(v) for v in x)
    if isinstance(x, dict):
        return dict(sorted((_plain(k), _plain(v)) for k, v in x.items()))
    item = getattr(x, "item", None)
    if item is not None:
        value = item()
        if type(value) in _PLAIN:
            return value
    raise TypeError(f"not declarative: {type(x).__name__}")


def _declarative(values: tuple) -> tuple | None:
    """Slow path of :func:`cell_keys`: the field tuple with every value
    replaced by its builtin twin and ``params`` sorted, or ``None`` if
    the cell has no declarative identity."""
    policy = values[_POLICY]
    if policy is not None and not isinstance(policy, str):
        return None  # a RoutingPolicy instance has no declarative identity
    try:
        out = [_plain(v) for v in values]
        out[_PARAMS] = tuple(sorted(out[_PARAMS]))
    except (TypeError, ValueError):
        return None  # non-declarative params (arrays, objects, ...)
    return tuple(out)


@functools.cache
def _key_prefix(fingerprint: str, check: bool) -> Any:
    """The sha256 state after every key's ``fingerprint:check:`` prefix;
    a cell's key is a ``.copy()`` of it fed the cell, the same digest
    as hashing prefix and cell in one go."""
    return hashlib.sha256(f"{fingerprint}:{check}:".encode())


def cell_keys(cells: Iterable[Any], *, check: bool = False) -> list[str | None]:
    """Canonical sha256 identity of each cell's row, in one pass: ``None``
    for a cell that is not a pure function of its declaration (see the
    module doc).  Keys cover every :class:`PlanCell` field, ``check`` and
    the code fingerprint; ``1``, ``1.0`` and ``True`` key apart, a numpy
    scalar keys like its Python twin."""
    prefix = _key_prefix(_code_fingerprint(), bool(check))
    keys: list[str | None] = []
    for cell in cells:
        values = _FIELDS(cell)
        if values[0].startswith("@"):
            keys.append(None)
            continue
        if values[_PARAMS] or not _PLAIN.issuperset(map(type, values)):
            plain = _declarative(values)
            if plain is None:
                keys.append(None)
                continue
            values = plain
        digest = prefix.copy()
        digest.update(repr(values).encode())
        keys.append(digest.hexdigest())
    return keys


def cell_key(cell: Any, *, check: bool = False) -> str | None:
    """:func:`cell_keys` of one cell."""
    return cell_keys([cell], check=check)[0]


def _json_scalar(x: object) -> object:
    """JSON encoder fallback: numpy scalars become their Python twins."""
    item = getattr(x, "item", None)
    if item is not None:
        return item()
    raise TypeError(f"not JSON-serialisable: {type(x).__name__}")


# Keys per ``SELECT ... IN`` query: under sqlite's historical limit of
# 999 bound parameters.
_CHUNK = 900
# Rows are this module's own ``json.dumps`` output, so the decoder's
# whitespace and trailing-data checks (half of ``json.loads``) are moot.
_decode_row = json.JSONDecoder().raw_decode


class ResultStore:
    """Persistent ``cell hash -> result row`` table in one sqlite file.

    Thread-safe (one connection guarded by a lock — plan runs touch the
    store in one batch before and after execution, so contention is
    nil).  Rows live in the ``cells`` table; reads never write, so a
    warm run is not blocked by another connection's write transaction.
    A file that is not a result store (not sqlite, truncated, another
    schema) raises :class:`sqlite3.DatabaseError` naming its path.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        try:
            with self._conn:
                self._conn.execute(
                    "CREATE TABLE IF NOT EXISTS cells ("
                    " key TEXT PRIMARY KEY, row TEXT NOT NULL) WITHOUT ROWID"
                )
            self._conn.execute("SELECT key, row FROM cells LIMIT 1").fetchone()
        except sqlite3.DatabaseError as exc:
            self._conn.close()
            raise sqlite3.DatabaseError(
                f"{self.path} is not a result store ({exc})"
            ) from exc

    # -- batch API (what plan runs use) --------------------------------
    def get_many(self, keys: Sequence[str]) -> dict[str, tuple]:
        """Stored rows for ``keys``, read in chunked ``IN`` queries and
        decoded as they leave the cursor; counts one hit per found key
        and one miss per absent key in :data:`STORE_COUNTERS`."""
        found: dict[str, tuple] = {}
        with self._lock:
            for lo in range(0, len(keys), _CHUNK):
                chunk = keys[lo:lo + _CHUNK]
                marks = ",".join("?" * len(chunk))
                cur = self._conn.execute(
                    f"SELECT key, row FROM cells WHERE key IN ({marks})", chunk
                )
                for key, row in cur:
                    found[key] = tuple(_decode_row(row)[0])
        STORE_COUNTERS.add(hits=len(found), misses=len(keys) - len(found))
        return found

    def put_many(self, rows: dict[str, tuple]) -> None:
        """Insert (or refresh) rows in one transaction."""
        if not rows:
            return
        with self._lock, self._conn:
            self._conn.executemany(
                "INSERT OR REPLACE INTO cells (key, row) VALUES (?, ?)",
                [
                    (key, json.dumps(row, default=_json_scalar))
                    for key, row in rows.items()
                ],
            )

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._conn.execute("SELECT COUNT(*) FROM cells").fetchone()
        return int(count)

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultStore({str(self.path)!r})"


def store_hits(
    store: ResultStore, runtime: Any
) -> tuple[dict[int, str], dict[int, tuple]]:
    """Key every cacheable cell of ``runtime``'s plan and fetch the stored
    rows: ``(keys by cell index, hit rows by cell index)``.

    Under ``REPRO_SANITIZE=1`` sampled hit rows are recomputed end to
    end (emission, fold, route, sim) and must match the stored row — the
    runtime counterpart of the cell-purity contract the store rests on.
    """
    custom_machines = runtime.plan.machines is not None
    todo = [
        i for i, cell in enumerate(runtime.cells)
        # a builder mapping has no declarative identity
        if not (custom_machines and cell.machine is not None)
    ]
    computed = cell_keys((runtime.cells[i] for i in todo), check=runtime.check)
    keys = {i: key for i, key in zip(todo, computed) if key is not None}
    cached = store.get_many(sorted(set(keys.values())))
    hits = {i: cached[key] for i, key in keys.items() if key in cached}
    if sanitize.enabled():
        for i, row in hits.items():
            if sanitize.should_spotcheck():
                runtime.prepare([i])
                sanitize.check_row_parity(
                    row, runtime.eval_cell(i), f"store hit cell {i}"
                )
    return keys, hits
