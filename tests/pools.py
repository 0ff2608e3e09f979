"""Seeded inputs that several tests share; a cached pool is built once per test run.

Cached pools are tuples, so no test can change one for another.
`random_maps` and `certify_conjugator` draw from the caller's `rng`, and
`word_pool` hands out maps that no membership check has seen yet, so
these three are not cached.
"""

import random
from fractions import Fraction as F
from functools import lru_cache

from plmonster import (
    PLLineMap,
    compose,
    default_context,
    identity_map,
    invert,
    irrational_candidate_g0,
    lift,
    power,
    random_member,
    random_word,
    rotation_map,
    torsion_rotation,
    tuple_map,
)
from plmonster.amalgam import Factor
from plmonster.stein import STEIN_2_3, THOMPSON


def g0bar():
    return lift(irrational_candidate_g0(), 0)


def z():
    return PLLineMap(identity_map(), 1)


def random_maps(rng, count):
    """Random members of T_2 and T_{2,3} in turn."""
    return [random_member(THOMPSON if i % 2 == 0 else STEIN_2_3, rng) for i in range(count)]


@lru_cache(maxsize=None)
def member_grids(descriptor, count, seed):
    """The kernel grids of `count` random members of the descriptor's group."""
    rng = random.Random(seed)
    maps = [random_member(descriptor, rng, max_len=6, max_depth=3) for _ in range(count)]
    return tuple((f._xs, f._ys) for f in maps)


# the rotation-certify benchmark's conjugators: tuple maps of 3 points on
# the 2**-3 grid in T_2, and of 2 points on the 6**-2 grid in T_{2,3}
CERTIFY_CONJUGATORS = ((THOMPSON, 3, 3), (STEIN_2_3, 2, 2))


def certify_conjugator(rng, descriptor, depth, length):
    """A tuple map of `length` random points on the lam**-depth grid."""
    n = descriptor.lam**depth
    xs = sorted(rng.sample(range(n), length))
    ys = sorted(rng.sample(range(n), length))
    shift = rng.randrange(length)
    return tuple_map(
        [F(x, n) for x in xs[shift:] + xs[:shift]],
        [F(y, n) for y in ys[shift:] + ys[:shift]],
        descriptor,
    )


@lru_cache(maxsize=None)
def stein_members():
    """Stein (2,3) members with rational rotation numbers, none the identity."""
    return (
        torsion_rotation(STEIN_2_3, 1, 2),
        torsion_rotation(STEIN_2_3, 5, 6),
        tuple_map([0, F(1, 4)], [0, F(1, 2)], STEIN_2_3),
        tuple_map([0, F(1, 3), F(1, 2)], [0, F(1, 6), F(2, 3)], STEIN_2_3),
    )


@lru_cache(maxsize=None)
def default_edge_pool():
    """(candidate, k) pairs against the default context's edge.

    Edge powers k in -70..70, past POWER_CACHE_LIMIT, come with their k;
    edge powers times Stein (2,3) members in both orders and every G2
    syllable of 200 random words come with None (not known).
    """
    context = default_context()
    edge = context.edge
    pool = [(power(edge, k), k) for k in range(-70, 71)]
    for m in stein_members():
        for offset in range(-3, 4):
            h = lift(m, offset)
            for k in (-25, -3, 0, 1, 4, 31):
                pool.append((compose(power(edge, k), h), None))
                pool.append((compose(h, power(edge, k)), None))
    for seed in range(200):
        for s in random_word(context, 6, seed).syllables:
            if s.factor is Factor.G2:
                pool.append((s.element, None))
    return tuple(pool)


@lru_cache(maxsize=None)
def small_rotation_bases():
    """Two bases with translation number 1/40, below 2/31.

    fbar(0) +- 1 leaves about 80 exponents against them, so detection
    reaches the displacement rung; the conjugate's grid is wide enough
    that large powers also reach the squaring rung.
    """
    r = rotation_map(F(1, 40))
    h = tuple_map([0, F(1, 2)], [0, F(1, 6)], STEIN_2_3)
    return lift(r, 0), lift(compose(compose(invert(h), r), h), 0)


@lru_cache(maxsize=None)
def small_rotation_pool(base):
    """Powers of the base with their k, and their products with Stein members."""
    pool = [(power(base, k), k) for k in (-80, -50, -7, -1, 1, 3, 40, 80)]
    for m in stein_members():
        for offset in (-1, 0, 1):
            h = lift(m, offset)
            for k in (-3, 0, 5):
                pool.append((compose(power(base, k), h), None))
                pool.append((compose(h, power(base, k)), None))
    return tuple(pool)


def word_pool():
    """Two fresh elements per factor, none of them checked yet."""
    c = default_context()
    rng = random.Random(5)
    return {
        factor: [lift(random_member(c.descriptor(factor), rng, 4, 2), k) for k in (-1, 1)]
        for factor in Factor
    }


@lru_cache(maxsize=None)
def pl_word_pool():
    """Random PL words of 1 to 12 syllables, as syllable tuples."""
    c = default_context()
    return tuple(
        random_word(c, length, seed).syllables for length in range(1, 13) for seed in range(12)
    )
