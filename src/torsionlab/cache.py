"""Content-addressed on-disk cache for Groebner computations.

``groebner_basis`` caches the reduced bases it computes, which covers most
expensive computations in the engine.  The incremental completions behind
``RingContext.minimal_subset`` are not cached: their intermediate bases are
not reduced, so not canonical, and a warm rerun recomputes them.  That is
cheaper than caching a reduced basis of the span per kept vector: on the
seed-0 certify benchmark script, the 115 calls take about 0.25 s on a warm
rerun, and looking those bases up instead takes about 0.7 s (2-CPU Xeon).
Entries are JSON files named by the SHA-256 of a canonical request payload
(field, ambient module, order, generators, engine version), whose text
``groebner_request`` builds once per call for the lookup and the store.
Writes go through a temp file plus atomic rename under an advisory lock on
the directory's one ``.lock`` file, so concurrent processes sharing a cache
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

from .errors import InputError
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


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class ComputationCache:
    """Filesystem cache keyed by content hash of the request."""

    def __init__(self, directory: str):
        self.directory = directory
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise InputError(
                f"cannot use cache directory {directory}: {exc.strerror}"
            ) from exc
        self.hits = 0
        self.misses = 0

    def _path(self, digest: str) -> str:
        return os.path.join(self.directory, f"{digest}.json")

    def get(self, request: "Request") -> Optional[dict]:
        try:
            with open(self._path(request.digest), "r", encoding="utf-8") as handle:
                body = handle.read()
            # an entry this cache wrote starts with its canonical request
            stored = json.loads(body) if body.startswith(request.head) else None
        except (OSError, ValueError):
            stored = None
        if stored is None:
            self.misses += 1
            return None
        self.hits += 1
        return stored["result"]

    def put(self, request: "Request", result: dict) -> None:
        path = self._path(request.digest)
        body = request.head + _canonical(result) + "}"
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


class Request:
    """A request's canonical JSON text, built once: the entry is named by
    its SHA-256, and its body, the canonical form of ``{"format",
    "request", "result"}`` (three keys in sorted order), starts with
    ``head``."""

    def __init__(self, cache: ComputationCache, text: str):
        self.cache = cache
        self.digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        self.head = f'{{"format":{CACHE_FORMAT},"request":{text},"result":'


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


def groebner_request(
    field: FieldSpec,
    nvars: int,
    rank: int,
    order: MonomialOrder,
    gens: Sequence[FreeElement],
) -> Optional[Request]:
    """The request for the reduced basis of ``gens``, or None when no cache
    is active.  The generators are sorted by their own canonical text,
    which sorts them as their ``json.dumps`` text does: the two differ only
    by a space after each comma and colon."""
    active = _active.get()
    if active is None:
        return None
    payload = {
        "op": "groebner",
        "engine": ENGINE_VERSION,
        "characteristic": field.characteristic,
        "nvars": nvars,
        "rank": rank,
        "order": order.describe(),
        "generators": sorted((encode_element(g) for g in gens), key=_canonical),
    }
    text = _canonical(payload)
    return Request(active, text)


def lookup_groebner(
    request: Optional[Request], field: FieldSpec, nvars: int, rank: int
) -> Optional[List[FreeElement]]:
    if request is None:
        return None
    result = request.cache.get(request)
    if result is None:
        return None
    return [decode_element(e, field, nvars, rank) for e in result["elements"]]


def store_groebner(
    request: Optional[Request], elements: Sequence[FreeElement]
) -> None:
    if request is None:
        return
    request.cache.put(request, {"elements": [encode_element(g) for g in elements]})
