"""Monomial orders and their extensions to free-module terms.

A module term is a pair ``(position, exponents)``.  Orders are realized as
sort keys where a larger term has a smaller key, so ``sorted``, ``min`` and
a ``heapq`` min-heap all list terms from largest to smallest.  Keys are
distinct for distinct terms and are tuples of ints (or nested tuples), so
comparisons stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

DEGREVLEX = "degrevlex"

POSITION_OVER_TERM = "position-over-term"
POSITION_BLOCKS = "position-blocks"

Mono = Tuple[int, ...]
Term = Tuple[int, Mono]


def _degrevlex_sort_key(e: Mono):
    # a > b iff total degree is larger, or equal and the last nonzero
    # entry of a - b is negative.
    return (-sum(e), e[::-1])


@dataclass(frozen=True)
class MonomialOrder:
    """Degree reverse lexicographic order plus a rule for comparing
    free-module positions.

    ``elim_split = s`` makes the first ``s`` variables dominate the rest
    (block order), which is how variable elimination is expressed.
    Position over term compares positions first.  The position-blocks
    extension splits positions at ``block_split``: the first block
    dominates the second, and inside each block the monomial decides
    before the position, so variable elimination stays effective across
    positions of one block.
    """

    module: str = POSITION_OVER_TERM
    elim_split: Optional[int] = None
    block_split: Optional[int] = None

    def mono_sort_key(self) -> Callable[[Mono], object]:
        split = self.elim_split
        if split is None:
            return _degrevlex_sort_key

        def key(e: Mono):
            return (_degrevlex_sort_key(e[:split]), _degrevlex_sort_key(e[split:]))

        return key

    def term_sort_key(self) -> Callable[[Term], object]:
        mkey = self.mono_sort_key()
        if self.module == POSITION_OVER_TERM:

            def key(t: Term):
                return (t[0], mkey(t[1]))

        elif self.module == POSITION_BLOCKS:
            split = self.block_split or 0

            def key(t: Term):
                pos, e = t
                return (0 if pos < split else 1, mkey(e), pos)

        else:
            raise ValueError(f"unknown module extension {self.module!r}")
        return key

    def describe(self) -> dict:
        data = {"kind": DEGREVLEX, "module": self.module}
        if self.elim_split is not None:
            data["elim_split"] = self.elim_split
        if self.block_split is not None:
            data["block_split"] = self.block_split
        return data


DEFAULT_ORDER = MonomialOrder()
