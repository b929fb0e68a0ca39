"""Product caps {(1, x, y)} of PG(a+b, q) from affine caps of AG(a, q) and AG(b, q).

If no three points of A nor of B are collinear, none of A x B are
either (Edel and Bierbrauer, "Recursive constructions for large caps",
Bull. Belg. Math. Soc. 6, 1999): so products of small seeded caps give
caps of known size in larger geometries.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from capcheck import Cap, Geometry, encode_point, validate_cap


def affine_cap(a: int, q: int, seed: int) -> list[tuple[int, ...]]:
    """A seeded cap of AG(a, q): the points x of (1, x), shuffled, each kept if it leaves a cap."""
    g = Geometry(a, q)
    points = list(product(range(q), repeat=a))
    np.random.default_rng(seed).shuffle(points)
    kept: list[tuple[int, ...]] = []
    codes: tuple[int, ...] = ()
    for x in points:
        code = encode_point([1, *x], g)
        if validate_cap(Cap(g, codes + (code,))) is None:
            kept.append(x)
            codes += (code,)
    return kept


def product_cap(first: list[tuple[int, ...]], second: list[tuple[int, ...]], q: int) -> Cap:
    """The cap {(1, x, y)} of PG(a+b, q), x from the first affine cap and y from the second."""
    g = Geometry(len(first[0]) + len(second[0]), q)
    return Cap(g, tuple(encode_point([1, *x, *y], g) for x in first for y in second))
