"""Product caps {(1, x, y)} of PG(a+b, q) from affine caps of AG(a, q) and AG(b, q).

If no three points of A nor of B are collinear, none of A x B are
either (Edel and Bierbrauer, "Recursive constructions for large caps",
Bull. Belg. Math. Soc. 6, 1999): so products of small seeded caps give
caps of known size in larger geometries.

Only one factor must be affine: for a cap B of PG(l, q), its points b
in normalized coordinates, and a cap A of AG(k, q), the points (b, x)
form a cap of PG(l+k, q).  Three of them on a line with three distinct
b would put three points of B on a line; with two equal b the third
coefficient vanishes; with all three equal, three points of A are on
a line.  B can be the elliptic quadric of PG(3, 4), an ovoid.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from capcheck import Cap, Geometry, decode_point, encode_point, enumerate_points, validate_cap


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


def elliptic_quadric(c: int) -> list[tuple[int, ...]]:
    """The points of x0*x1 + x2^2 + x2*x3 + c*x3^2 = 0 in PG(3, 4), normalized coordinates ascending.

    For c = 2 or 3 the form x2^2 + x2*x3 + c*x3^2 is irreducible over
    GF(4), and the quadric is an ovoid: 17 points, no three collinear.
    """
    g = Geometry(3, 4)
    mul = g.field.mul
    points = (decode_point(p, g) for p in enumerate_points(g))
    return [
        tuple(x)
        for x in points
        if mul(x[0], x[1]) ^ mul(x[2], x[2]) ^ mul(x[2], x[3]) ^ mul(c, mul(x[3], x[3])) == 0
    ]


def projective_product(first: list[tuple[int, ...]], second: list[tuple[int, ...]], q: int) -> Cap:
    """The cap {(b, x)} of PG(l+k, q), b a normalized point of a cap of PG(l, q) and x from an affine cap of AG(k, q)."""
    g = Geometry(len(first[0]) - 1 + len(second[0]), q)
    return Cap(g, tuple(encode_point([*b, *x], g) for b in first for x in second))
