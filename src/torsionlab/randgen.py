"""Seeded random generators for panels and exploratory runs.

All randomness in the tool flows through an explicit ``random.Random``
instance, so reports are reproducible from (seed, version).
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from .errors import TorsionLabError
from .modules import FPModule, _monomials_of_weighted_degree
from .poly import FreeElement, Polynomial
from .rings import RingContext

# a planted relation's entry degree; the extra relations' is one higher
PLANTED_DEGREE = 1
EXTRA_RELATIONS = 1
# how many draws random_nonfree_module makes before it gives up
MAX_ATTEMPTS = 20


def random_coefficient(ring: RingContext, rng: random.Random, nonzero: bool = False):
    p = ring.field.characteristic
    if p:
        low = 1 if nonzero else 0
        return ring.field.coerce(rng.randint(low, p - 1))
    value = rng.randint(-4, 4)
    if nonzero and value == 0:
        value = 1
    return ring.field.coerce(value)


def random_homogeneous_polynomial(
    ring: RingContext,
    degree: int,
    rng: random.Random,
    nonzero: bool = True,
) -> Polynomial:
    """A random homogeneous element of the given weighted degree."""
    monos = list(_monomials_of_weighted_degree(ring.nvars, ring.grading, degree))
    if not monos:
        return ring.zero()
    terms = {}
    for mono in monos:
        if rng.random() < 0.5:
            c = random_coefficient(ring, rng)
            if c:
                terms[mono] = c
    if nonzero and not terms:
        terms[rng.choice(monos)] = random_coefficient(ring, rng, nonzero=True)
    poly = Polynomial(ring.field, ring.nvars, terms)
    return ring.normal_form_poly(poly)


def random_module_with_planted_relation(
    ring: RingContext,
    rng: random.Random,
    ngens: int = 2,
) -> Tuple[FPModule, List[Polynomial]]:
    """A module whose first relation column is a chosen homogeneous relation.

    Returns the module and the planted coefficients r_1..r_d, which satisfy
    sum r_i g_i = 0 by construction.
    """
    planted = [
        random_homogeneous_polynomial(ring, PLANTED_DEGREE, rng) for _ in range(ngens)
    ]
    if all(p.is_zero() for p in planted):
        planted[0] = ring.variable(0)
    columns = [FreeElement.from_components(planted, rank=ngens)]
    for _ in range(EXTRA_RELATIONS):
        entries = [
            random_homogeneous_polynomial(ring, PLANTED_DEGREE + 1, rng, nonzero=False)
            if rng.random() < 0.6
            else ring.zero()
            for _ in range(ngens)
        ]
        col = FreeElement.from_components(entries, rank=ngens)
        if not col.is_zero():
            columns.append(col)
    module = FPModule(ring, columns, ngens, (0,) * ngens)
    return module, planted


def random_nonfree_module(ring: RingContext, rng: random.Random) -> Optional[FPModule]:
    """A random non-free, nonzero module, or None if the draw keeps failing."""
    for _ in range(MAX_ATTEMPTS):
        ngens = rng.randint(1, 3)
        ncols = rng.randint(1, 2)
        columns = []
        for _ in range(ncols):
            entries = [
                random_homogeneous_polynomial(ring, rng.randint(1, 2), rng, nonzero=False)
                for _ in range(ngens)
            ]
            col = FreeElement.from_components(entries, rank=ngens)
            if not col.is_zero():
                columns.append(col)
        if not columns:
            continue
        try:
            module = FPModule(ring, columns, ngens, (0,) * ngens)
        except TorsionLabError:
            continue
        if module.nu() > 0 and not module.is_free():
            return module
    return None
