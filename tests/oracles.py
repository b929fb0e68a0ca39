"""Independent reference implementations used only as test oracles.

Everything here is written straight from the definitions: polynomials
multiplied term by term, inverses found by exhaustive search, points
kept as coordinate tuples, collinearity decided by trying every linear
combination.  Nothing is shared with the package internals beyond the
choice of modulus, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

from itertools import combinations, product


def poly_mul(a: int, b: int) -> int:
    acc = 0
    shift = 0
    while b:
        if b & 1:
            acc ^= a << shift
        b >>= 1
        shift += 1
    return acc


def poly_rem(a: int, m: int) -> int:
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


class RefField:
    """GF(2^k) by definition-level polynomial arithmetic."""

    def __init__(self, k: int, modulus: int):
        self.k = k
        self.q = 1 << k
        self.modulus = modulus

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        return poly_rem(poly_mul(a, b), self.modulus)

    def inv(self, a: int) -> int:
        for b in range(1, self.q):
            if self.mul(a, b) == 1:
                return b
        raise ValueError(f"no inverse for {a}")


# ---------------------------------------------------------------------------
# coordinate-domain projective geometry
# ---------------------------------------------------------------------------


def vec_add(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a ^ b for a, b in zip(u, v))


def vec_scale(f: RefField, alpha: int, u: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(f.mul(alpha, x) for x in u)


def encode_coords(coords: tuple[int, ...], q: int) -> int:
    value = 0
    for x in coords:
        value = value * q + x
    return value


def normalize_vec(f: RefField, u: tuple[int, ...]) -> tuple[int, ...]:
    lead = next(x for x in u if x)
    return vec_scale(f, f.inv(lead), u)


def all_points(f: RefField, r: int) -> list[tuple[int, ...]]:
    """Every projective point of PG(r, q) once, as a normalized tuple."""
    seen = []
    found = set()
    for coords in product(range(f.q), repeat=r + 1):
        if any(coords):
            n = normalize_vec(f, coords)
            if n not in found:
                found.add(n)
                seen.append(n)
    return seen


def collinear(f: RefField, a: tuple[int, ...], b: tuple[int, ...], c: tuple[int, ...]) -> bool:
    """Is c on the line through distinct points a and b?"""
    for lam in range(f.q):
        for mu in range(f.q):
            if lam == 0 and mu == 0:
                continue
            w = tuple(f.mul(lam, x) ^ f.mul(mu, y) for x, y in zip(a, b))
            if any(w) and normalize_vec(f, w) == normalize_vec(f, c):
                return True
    return False


def is_cap(f: RefField, vecs: list[tuple[int, ...]]) -> bool:
    return all(
        not collinear(f, a, b, c) for a, b, c in combinations(vecs, 3)
    )


def find_collinear_triple(f, vecs):
    for a, b, c in combinations(vecs, 3):
        if collinear(f, a, b, c):
            return (a, b, c)
    return None


def covered(f: RefField, cap_vecs: list[tuple[int, ...]], p: tuple[int, ...]) -> bool:
    """Does p lie on a secant, i.e. a line through two cap points?"""
    for a, b in combinations(cap_vecs, 2):
        if collinear(f, a, b, p):
            return True
    return False


def greedy_cap(
    f: RefField, r: int, order, start: tuple[int, ...] = (), limit: int | None = None
) -> list[int]:
    """Greedy cap of PG(r, q) by the definition, as codes.

    Points are indexed in increasing order of their codes; `order` walks
    those indices.  Starting from the cap `start`, each point is kept
    exactly when no line through it holds two kept points, until `limit`
    points are kept.  The lines of the kept points are enumerated as
    they are kept.
    """
    points = sorted(all_points(f, r), key=lambda v: encode_coords(v, f.q))
    kept: list[tuple[int, ...]] = []
    on_lines: set[tuple[int, ...]] = set()

    def keep(p):
        for a in kept:  # the line through a and p, but for p itself: a + mu*p for every mu
            on_lines.update(normalize_vec(f, vec_add(a, vec_scale(f, mu, p))) for mu in range(f.q))
        kept.append(p)

    by_code = {encode_coords(p, f.q): p for p in points}
    for code in start:
        keep(by_code[code])
    for t in order:
        if limit is not None and len(kept) >= limit:
            break
        p = points[int(t)]
        if p not in on_lines and p not in kept:
            keep(p)
    return [encode_coords(p, f.q) for p in kept]
