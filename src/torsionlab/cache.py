"""Content-addressed on-disk cache for Groebner computations.

``groebner_basis`` (request op ``"groebner"``) and ``syzygy_generators``
(op ``"syzygies"``, over the generators of a graph) reach the cache by one
route, ``groebner._reduced_completion``, which looks a request up and
stores what a miss computes: together they cover most expensive
computations in the engine.  The op is part of the request, so a graph's
reduced basis and its syzygies are different entries.  The incremental
completions behind ``RingContext.minimal_subset`` are not cached: their
intermediate bases are not reduced, so not canonical, and a warm rerun
recomputes them.  That is cheaper than caching a reduced basis of the span
per kept vector: on the seed-0 certify benchmark script, the 115 calls take
about 0.25 s on a warm rerun, and looking those bases up instead takes
about 0.7 s (2-CPU Xeon).  The membership completion of an ``FPModule``
(its relations plus I*R^n, completed only up to the degree each element
test needs) is not cached either, for the same reason.  Syzygies modulo a
submodule put its vectors in the graph's lift, untagged, so a request names
only the tagged columns.  Entries are JSON files named by the SHA-256 of a
canonical request payload (op, field, ambient module, order, generators,
engine version), whose text ``groebner_request`` builds once per call for
the lookup and the store: each generator's text is written once by
``element_text``, which gives what ``json.dumps`` gives for
``encode_element`` in the canonical form, and the same texts sort the
generators and make up the payload.  Writes go through a temp file plus
atomic rename under an advisory lock on the directory's one ``.lock`` file,
so concurrent processes sharing a cache directory stay consistent and an
interrupted run never leaves a partial entry.  ``open_cache`` opens the
cache a run asks for; the cache in use is the ``cache`` field of the run
settings (``limits.run_scope``), so it is scoped to the current context
like the degree cap.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from fractions import Fraction
from typing import List, Optional, Sequence

from .errors import InputError
from .fields import FieldSpec
from .limits import current
from .orders import ORDER_DESCRIPTION
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


def element_text(f: FreeElement) -> str:
    """``_canonical(encode_element(f))``, written in one pass: the terms in
    sorted order as ``[pos,[e1,..],c]``, a QQ coefficient as ``[num,den]``."""
    items = sorted(f.terms.items())
    if f.field.characteristic:
        parts = [
            f"[{pos},[{','.join(map(str, mono))}],{int(c)}]"
            for (pos, mono), c in items
        ]
    else:
        parts = [
            f"[{pos},[{','.join(map(str, mono))}],[{c.numerator},{c.denominator}]]"
            for (pos, mono), c in items
        ]
    return "[" + ",".join(parts) + "]"


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

    def put(self, request: "Request", result: str) -> None:
        """Store ``result``, the canonical text of the result object."""
        path = self._path(request.digest)
        body = request.head + result + "}"
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


def open_cache(directory: Optional[str]) -> Optional[ComputationCache]:
    """The cache in ``directory`` (or $TORSIONLAB_CACHE); None when neither
    is set."""
    if directory is None:
        directory = os.environ.get(ENV_VAR)
    return ComputationCache(directory) if directory else None


def groebner_request(
    field: FieldSpec,
    nvars: int,
    rank: int,
    gens: Sequence[FreeElement],
    op: str = "groebner",
) -> Optional[Request]:
    """The request for computation ``op`` on ``gens`` in rank ``rank``, or
    None when the run uses no cache: ``"groebner"`` for the reduced basis of
    ``gens``, ``"syzygies"`` for the syzygies read off the graph ``gens``.
    The text is ``_canonical`` of the payload {op, engine, characteristic,
    nvars, rank, order, generators}, written key by key in sorted order,
    with each generator's ``element_text`` built once and the generators
    sorted by it."""
    active = current().cache
    if active is None:
        return None
    generators = ",".join(sorted(element_text(g) for g in gens))
    text = (
        f'{{"characteristic":{field.characteristic},'
        f'"engine":{_canonical(ENGINE_VERSION)},'
        f'"generators":[{generators}],'
        f'"nvars":{nvars},'
        f'"op":{_canonical(op)},'
        f'"order":{_canonical(ORDER_DESCRIPTION)},'
        f'"rank":{rank}}}'
    )
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
    texts = ",".join(element_text(g) for g in elements)
    request.cache.put(request, f'{{"elements":[{texts}]}}')
