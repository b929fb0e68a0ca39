"""Caps of PG(2, q), q = 2^k, whose completeness answer is a theorem.

Built from their definitions with FieldTable arithmetic only, so a
fault in a field table or in the checkers' shared marking path shows as
a wrong count instead of agreeing with itself (Hirschfeld, *Projective
Geometries over Finite Fields*, ch. 7 and 8):

- the conic x1^2 = x0*x2 is a (q+1)-arc; for q even its tangents all
  meet in the nucleus (0, 1, 0), which lies on no secant, and every
  other point off the conic does;
- the conic and its nucleus form the regular hyperoval, a (q+2)-arc,
  which is complete: no point is off its secants;
- a hyperoval less a point P is a (q+1)-arc whose nucleus is P, so P
  is the one point it leaves uncovered.
"""

from __future__ import annotations

from capcheck import Cap, Geometry, encode_point


def nucleus(g: Geometry) -> int:
    """The point (0, 1, 0), the nucleus of conic(g)."""
    return encode_point([0, 1, 0], g)


def conic(g: Geometry) -> Cap:
    """The q+1 points (1, t, t^2), t in GF(q), and (0, 0, 1) of PG(2, q)."""
    f = g.field
    return Cap(g, tuple(encode_point([1, t, f.square(t)], g) for t in range(g.q)) + (encode_point([0, 0, 1], g),))


def regular_hyperoval(g: Geometry) -> Cap:
    """conic(g) and its nucleus: q+2 points, no three collinear."""
    return Cap(g, conic(g).points + (nucleus(g),))


def without(c: Cap, t: int) -> Cap:
    """c less its point of index t."""
    return Cap(c.geometry, c.points[:t] + c.points[t + 1 :])
