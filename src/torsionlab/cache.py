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
interrupted run never leaves a partial entry; a directory that cannot be
written is an ``InputError``, as one that cannot be made is.  Every SHA-256
in the package, entry names and the report's ``input_hash`` alike, is
``text_digest``, which takes the interpreter's built-in ``sha256``
(``_sha256``, or ``_sha2`` from Python 3.12) and falls back to
``hashlib`` only when neither module exists: ``hashlib`` loads
``_hashlib``, which maps OpenSSL's libcrypto, about 3 MB of each process's
peak RSS.  The digests are the same either way.  The cache in use is the
``cache`` field of the run settings (``limits.run_scope``), so it is scoped
to the current context like the degree cap; the command line opens one for
``--cache``.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, TypeVar

from .errors import InputError
from .fields import FieldSpec
from .limits import current
from .orders import ORDER_DESCRIPTION
from .poly import FreeElement

CACHE_FORMAT = 1
ENGINE_VERSION = "0.1.0"
LOCK_NAME = ".lock"

T = TypeVar("T")

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

try:
    from _sha256 import sha256 as _sha256  # Python 3.10-3.11
except ImportError:
    try:
        from _sha2 import sha256 as _sha256  # Python 3.12+
    except ImportError:
        from hashlib import sha256 as _sha256


def text_digest(text: str) -> str:
    """The hex SHA-256 of the UTF-8 bytes of ``text``."""
    return _sha256(text.encode("utf-8")).hexdigest()


def _encode_coeff(c, characteristic: int):
    if characteristic:
        return int(c)
    return [c.numerator, c.denominator]


def _decode_coeff(data, characteristic: int):
    """The nonzero field element stored as ``data``; ValueError when
    ``data`` is not one: an int in [1, p), or [num, den] ints, num nonzero
    and den positive."""
    if characteristic:
        if type(data) is int and 0 < data < characteristic:
            return data
    elif (
        type(data) is list
        and len(data) == 2
        and all(type(x) is int for x in data)
        and data[0]
        and data[1] > 0
    ):
        return Fraction(data[0], data[1])
    raise ValueError("a stored coefficient is not a nonzero field element")


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
    """The element ``encode_element`` wrote as ``data``; ValueError when
    ``data`` is not a nonempty list of distinct terms [pos, exponents,
    coefficient] with pos in [0, rank) and ``nvars`` nonnegative int
    exponents."""
    if type(data) is not list or not data:
        raise ValueError("a stored element is not a nonempty list of terms")
    terms = {}
    for term in data:
        if type(term) is not list or len(term) != 3:
            raise ValueError("a stored term is not [pos, exponents, coefficient]")
        pos, mono, c = term
        if (
            type(pos) is not int
            or not 0 <= pos < rank
            or type(mono) is not list
            or len(mono) != nvars
            or not all(type(x) is int and x >= 0 for x in mono)
        ):
            raise ValueError("a stored term does not fit the request's module")
        key = (pos, tuple(mono))
        if key in terms:
            raise ValueError("a stored element repeats a term")
        terms[key] = _decode_coeff(c, field.characteristic)
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
            raise self._unusable(exc) from exc
        self.hits = 0
        self.misses = 0

    def _unusable(self, exc: OSError) -> InputError:
        return InputError(
            f"cannot use cache directory {self.directory}: {exc.strerror}"
        )

    def _path(self, digest: str) -> str:
        return os.path.join(self.directory, f"{digest}.json")

    def get(self, request: "Request", decode: Callable[[object], T]) -> Optional[T]:
        """``decode`` of the stored result of ``request``: a hit.  A miss,
        and None, when there is no entry, or it is not one this cache wrote
        for the request, or ``decode`` raises ``ValueError`` on its result."""
        try:
            with open(self._path(request.digest), "r", encoding="utf-8") as handle:
                body = handle.read()
            # an entry this cache wrote starts with its canonical request
            if not body.startswith(request.head):
                raise ValueError("the entry is for another request")
            value = decode(json.loads(body)["result"])
        except (OSError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, request: "Request", result: str) -> None:
        """Store ``result``, the canonical text of the result object;
        ``InputError`` when the directory cannot be written."""
        path = self._path(request.digest)
        body = request.head + result + "}"
        lock_path = os.path.join(self.directory, LOCK_NAME)
        try:
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
        except OSError as exc:
            raise self._unusable(exc) from exc


class Request:
    """A request's canonical JSON text, built once: the entry is named by
    its SHA-256, and its body, the canonical form of ``{"format",
    "request", "result"}`` (three keys in sorted order), starts with
    ``head``."""

    def __init__(self, cache: ComputationCache, text: str):
        self.cache = cache
        self.digest = text_digest(text)
        self.head = f'{{"format":{CACHE_FORMAT},"request":{text},"result":'


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

    def decode(result) -> List[FreeElement]:
        if type(result) is not dict or type(result.get("elements")) is not list:
            raise ValueError("the stored result is not a list of elements")
        return [decode_element(e, field, nvars, rank) for e in result["elements"]]

    return request.cache.get(request, decode)


def store_groebner(
    request: Optional[Request], elements: Sequence[FreeElement]
) -> None:
    if request is None:
        return
    texts = ",".join(element_text(g) for g in elements)
    request.cache.put(request, f'{{"elements":[{texts}]}}')
