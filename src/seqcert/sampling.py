"""Seeded random generators over the point and function grammars.

Probe points, witness directions, and random function instances for the
certifiers and the property tests all come from here, so every stochastic
code path is reproducible from a single integer seed.
"""

from __future__ import annotations

import random
from typing import Optional

from .funcs import (
    FunctionExpr,
    LimsupSeminorm,
    LinearFunctional,
    ScalarConvex,
    SeparableSeries,
    Sum,
    scale,
)
from .seqspace import DualPoint, Point, SpaceDescriptor, SpaceKind, TailRule
from .symseq import SymSeq


def rng_from_seed(seed: int) -> random.Random:
    return random.Random(seed)


def random_tail(
    rng: random.Random, *, summable: bool = False, positive: bool = False
) -> tuple[SymSeq, ...]:
    """Zero to two tail atoms; flags restrict to summable / nonnegative shapes."""
    atoms: list[SymSeq] = []
    n_atoms = rng.choice([0, 1, 1, 2])
    for _ in range(n_atoms):
        kind = rng.choice(["geometric", "geometric", "harmonic", "const"])
        if summable and kind != "geometric":
            kind = "geometric"
        c = rng.uniform(0.1, 2.0) * (1 if positive else rng.choice([-1, 1]))
        if kind == "geometric":
            r = rng.uniform(0.15, 0.85)
            if not positive:
                r *= rng.choice([-1, 1, 1])
            atoms.append(TailRule.geometric(c, r))
        elif kind == "harmonic":
            atoms.append(TailRule.harmonic(c))
        else:
            atoms.append(TailRule.const(c))
    return tuple(atoms)


def random_point(
    rng: random.Random,
    *,
    space: Optional[SpaceDescriptor] = None,
    positive: bool = False,
    max_prefix: int = 6,
) -> Point:
    """A random grammar point, kept inside the given space when one is named."""
    m = rng.randint(0, max_prefix)
    lo = 0.05 if positive else -2.0
    prefix = [rng.uniform(lo, 2.0) for _ in range(m)]
    summable = space is not None and space.kind is SpaceKind.ELL1
    tail = random_tail(rng, summable=summable, positive=positive)
    return Point(prefix, tail)


def random_dual(
    rng: random.Random, *, finite_support: bool = False, max_prefix: int = 6
) -> DualPoint:
    m = rng.randint(1, max_prefix)
    prefix = [rng.uniform(-2.0, 2.0) for _ in range(m)]
    tail = () if finite_support else random_tail(rng, summable=True)
    return DualPoint(prefix, tail)


def random_direction(rng: random.Random, *, summable: bool = False) -> Point:
    """A nonzero direction from the tail grammar."""
    for _ in range(32):
        h = random_point(rng, positive=False, max_prefix=3)
        if summable:
            h = Point(h.prefix, random_tail(rng, summable=True))
        if h.prefix or h.tail:
            return h
    return Point((1.0,), ())


def random_weight(rng: random.Random) -> SymSeq:
    """A nonnegative summable-or-harmonic weight form."""
    kind = rng.choice(["geometric", "geometric", "geometric", "harmonic"])
    c = rng.uniform(0.2, 1.5)
    if kind == "geometric":
        return TailRule.geometric(c, rng.uniform(0.2, 0.7))
    return TailRule.harmonic(c)


def random_scalar_convex(rng: random.Random, *, smooth: bool = False) -> ScalarConvex:
    choices = ["square", "affine_quad", "linear"]
    if not smooth:
        choices.append("abs")
    kind = rng.choice(choices)
    if kind == "square":
        return ScalarConvex.square()
    if kind == "abs":
        return ScalarConvex.abs_()
    if kind == "linear":
        return ScalarConvex.linear(rng.uniform(-1.5, 1.5))
    b = rng.choice([rng.uniform(-1.0, 1.0), TailRule.harmonic(rng.uniform(-1.0, 1.0))])
    return ScalarConvex.affine_quad(rng.uniform(0.1, 1.5), b)


def random_separable(rng: random.Random, *, smooth: bool = False) -> SeparableSeries:
    return SeparableSeries(random_weight(rng), random_scalar_convex(rng, smooth=smooth))


def random_function(
    rng: random.Random,
    space: SpaceDescriptor,
    *,
    smooth: bool = False,
    allow_limsup: Optional[bool] = None,
) -> FunctionExpr:
    """A random convex expression valid on the given space.

    The limsup leaf only appears where its value is finite for every point
    of the space (anywhere in this grammar) and only when allowed; sqrt
    pieces are excluded here because they constrain the domain (tests that
    need them construct them deliberately).
    """
    if allow_limsup is None:
        allow_limsup = space.kind is SpaceKind.ELLINF
    parts: list[FunctionExpr] = [random_separable(rng, smooth=smooth)]
    if rng.random() < 0.5:
        parts.append(random_separable(rng, smooth=smooth))
    if rng.random() < 0.4:
        parts.append(LinearFunctional(random_dual(rng, finite_support=space.kind is SpaceKind.RN)))
    if allow_limsup and rng.random() < 0.3 and not smooth:
        parts.append(LimsupSeminorm())
    f: FunctionExpr = Sum(tuple(parts)) if len(parts) > 1 else parts[0]
    if rng.random() < 0.3:
        f = scale(rng.uniform(0.1, 2.0), f)
    return f
