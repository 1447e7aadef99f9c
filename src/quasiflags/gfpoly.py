"""Dense polynomial arithmetic over the prime field F_q.

A polynomial is a tuple of coefficients in [0, q), lowest degree first, with
no trailing zeros; the empty tuple is zero. The canonical representation
makes polynomials directly comparable and hashable, which the lattice code
leans on. Only what that code needs is provided: ring operations, division
with remainder, the extended Euclidean algorithm, and exact division by
powers of z. The modulus q is passed explicitly and must be prime (callers
check; leading-coefficient inversion silently assumes it).
"""

from __future__ import annotations

Poly = tuple[int, ...]

ZERO: Poly = ()
ONE: Poly = (1,)


def trim(coeffs) -> Poly:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def monomial(d: int) -> Poly:
    """z**d."""
    return (0,) * d + (1,)


def degree(a: Poly) -> int:
    """Degree, with -1 for the zero polynomial."""
    return len(a) - 1


def add(a: Poly, b: Poly, q: int) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % q
    return trim(out)


def sub(a: Poly, b: Poly, q: int) -> Poly:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % q
    return trim(out)


def scale(a: Poly, c: int, q: int) -> Poly:
    c %= q
    if c == 0:
        return ZERO
    # c is a unit, so the leading coefficient stays nonzero
    return tuple((c * x) % q for x in a)


def mul(a: Poly, b: Poly, q: int) -> Poly:
    if not a or not b:
        return ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % q
    return tuple(out)


def divmod_poly(a: Poly, b: Poly, q: int) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if degree(a) < degree(b):
        return ZERO, a
    inv_lead = pow(b[-1], -1, q)
    rem = list(a)
    quo = [0] * (len(a) - len(b) + 1)
    for k in range(len(a) - len(b), -1, -1):
        c = (rem[k + len(b) - 1] * inv_lead) % q
        if c:
            quo[k] = c
            for i, y in enumerate(b):
                rem[k + i] = (rem[k + i] - c * y) % q
    return trim(quo), trim(rem)


def xgcd(a: Poly, b: Poly, q: int) -> tuple[Poly, Poly, Poly]:
    """Monic g = gcd(a, b) together with x, y satisfying x*a + y*b = g."""
    r0, s0, t0 = a, ONE, ZERO
    r1, s1, t1 = b, ZERO, ONE
    while r1:
        quo, rem = divmod_poly(r0, r1, q)
        r0, r1 = r1, rem
        s0, s1 = s1, sub(s0, mul(quo, s1, q), q)
        t0, t1 = t1, sub(t0, mul(quo, t1, q), q)
    if not r0:
        return ZERO, ZERO, ZERO
    inv = pow(r0[-1], -1, q)
    return scale(r0, inv, q), scale(s0, inv, q), scale(t0, inv, q)


def div_z_power(a: Poly, d: int) -> Poly | None:
    """Exact quotient a / z**d, or None when z**d does not divide a."""
    if not a:
        return ZERO
    if len(a) <= d or any(a[:d]):
        return None
    return a[d:]


def is_z_power(a: Poly) -> bool:
    """True for the monic monomials 1, z, z^2, ..."""
    return bool(a) and a[-1] == 1 and not any(a[:-1])
