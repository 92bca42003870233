"""Content-addressed on-disk cache for Groebner computations.

Every expensive computation in the engine funnels through Buchberger
completion, so caching reduced bases is enough to make warm runs cheap.
Entries are JSON files named by the SHA-256 of a canonical request payload
(field, ambient module, order, generators, engine version).  Writes go
through a temp file plus atomic rename under an advisory lock on the
directory's one ``.lock`` file, so concurrent processes sharing a cache
directory stay consistent and an interrupted run never leaves a partial
entry.  The active cache is scoped to the current context: ``activate``
returns a token that ``restore`` uses to put the previous cache back.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextvars import ContextVar, Token
from fractions import Fraction
from typing import List, Optional, Sequence

from .fields import FieldSpec
from .orders import MonomialOrder
from .poly import FreeElement

CACHE_FORMAT = 1
ENGINE_VERSION = "0.1.0"
ENV_VAR = "TORSIONLAB_CACHE"
LOCK_NAME = ".lock"

try:
    import fcntl

    def _lock(handle):
        fcntl.flock(handle, fcntl.LOCK_EX)

    def _unlock(handle):
        fcntl.flock(handle, fcntl.LOCK_UN)

except ImportError:  # non-POSIX fallback: atomic rename still protects readers

    def _lock(handle):
        pass

    def _unlock(handle):
        pass


def _encode_coeff(c, characteristic: int):
    if characteristic:
        return int(c)
    return [c.numerator, c.denominator]


def _decode_coeff(data, characteristic: int):
    if characteristic:
        return data
    return Fraction(data[0], data[1])


def encode_element(f: FreeElement) -> list:
    items = sorted(f.terms.items())
    return [
        [pos, list(mono), _encode_coeff(c, f.field.characteristic)]
        for (pos, mono), c in items
    ]


def decode_element(
    data: list, field: FieldSpec, nvars: int, rank: int
) -> FreeElement:
    terms = {}
    for pos, mono, c in data:
        terms[(pos, tuple(mono))] = _decode_coeff(c, field.characteristic)
    return FreeElement(field, nvars, rank, terms, _normalized=True)


class ComputationCache:
    """Filesystem cache keyed by content hash of the request."""

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, digest: str) -> str:
        return os.path.join(self.directory, f"{digest}.json")

    @staticmethod
    def digest_for(payload: dict) -> str:
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def get(self, payload: dict) -> Optional[dict]:
        path = self._path(self.digest_for(payload))
        try:
            with open(path, "r", encoding="utf-8") as handle:
                stored = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if stored.get("request") != payload:
            self.misses += 1
            return None
        self.hits += 1
        return stored["result"]

    def put(self, payload: dict, result: dict) -> None:
        path = self._path(self.digest_for(payload))
        body = json.dumps(
            {"format": CACHE_FORMAT, "request": payload, "result": result},
            sort_keys=True,
            separators=(",", ":"),
        )
        lock_path = os.path.join(self.directory, LOCK_NAME)
        with open(lock_path, "w", encoding="utf-8") as lock_handle:
            _lock(lock_handle)
            try:
                fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
                try:
                    with os.fdopen(fd, "w", encoding="utf-8") as handle:
                        handle.write(body)
                    os.replace(tmp, path)
                finally:
                    if os.path.exists(tmp):
                        os.unlink(tmp)
            finally:
                _unlock(lock_handle)


_active: ContextVar[Optional[ComputationCache]] = ContextVar(
    "active_cache", default=None
)


def activate(directory: Optional[str]) -> Token:
    """Enable the cache in ``directory`` (or $TORSIONLAB_CACHE); None disables."""
    if directory is None:
        directory = os.environ.get(ENV_VAR)
    return _active.set(ComputationCache(directory) if directory else None)


def restore(token: Token) -> None:
    """Put back the cache that was active before ``activate`` returned ``token``."""
    _active.reset(token)


def deactivate() -> None:
    _active.set(None)


def active_cache() -> Optional[ComputationCache]:
    return _active.get()


def groebner_payload(
    field: FieldSpec,
    nvars: int,
    rank: int,
    order: MonomialOrder,
    gens: Sequence[FreeElement],
) -> dict:
    return {
        "op": "groebner",
        "engine": ENGINE_VERSION,
        "characteristic": field.characteristic,
        "nvars": nvars,
        "rank": rank,
        "order": order.describe(),
        "generators": sorted(
            (encode_element(g) for g in gens), key=json.dumps
        ),
    }


def lookup_groebner(
    field: FieldSpec,
    nvars: int,
    rank: int,
    order: MonomialOrder,
    gens: Sequence[FreeElement],
) -> Optional[List[FreeElement]]:
    active = _active.get()
    if active is None:
        return None
    result = active.get(groebner_payload(field, nvars, rank, order, gens))
    if result is None:
        return None
    return [decode_element(e, field, nvars, rank) for e in result["elements"]]


def store_groebner(
    field: FieldSpec,
    nvars: int,
    rank: int,
    order: MonomialOrder,
    gens: Sequence[FreeElement],
    elements: Sequence[FreeElement],
) -> None:
    active = _active.get()
    if active is None:
        return
    active.put(
        groebner_payload(field, nvars, rank, order, gens),
        {"elements": [encode_element(g) for g in elements]},
    )
