"""The one term order: degrevlex on monomials, position over term on
free-module terms.

A module term is a pair ``(position, exponents)``.  The order is realized
as sort keys where a larger term has a smaller key, so ``sorted``, ``min``
and a ``heapq`` min-heap all list terms from largest to smallest.  Keys are
distinct for distinct terms and are tuples of ints (or nested tuples), so
comparisons stay cheap.
"""

from __future__ import annotations

from typing import Tuple

Mono = Tuple[int, ...]
Term = Tuple[int, Mono]

ORDER_DESCRIPTION = {"kind": "degrevlex", "module": "position-over-term"}
"""How cache requests name the order; part of every cache key."""


def mono_key(e: Mono):
    # a > b iff total degree is larger, or equal and the last nonzero
    # entry of a - b is negative.
    return (-sum(e), e[::-1])


def term_key(t: Term):
    # the smaller position dominates, then the monomial decides
    return (t[0], mono_key(t[1]))
