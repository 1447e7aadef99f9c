"""Independent reference values for checking the library's outputs.

Nothing here imports quasiflags. Every expected value comes from a dynamic
programme over the box 0 <= w <= alpha, indexed in mixed radix with the
first coordinate most significant, so that iterating the box in
lexicographic order visits indices in increasing order.
"""

from __future__ import annotations

from itertools import product


def _strides(alpha: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    strides, size = [], 1
    for a in reversed(alpha):
        strides.append(size)
        size *= a + 1
    return tuple(reversed(strides)), size


def _index(w, strides) -> int:
    return sum(x * s for x, s in zip(w, strides))


def _sub_box_offsets(extent, strides) -> list[int]:
    """Index offsets of every u with 0 <= u <= extent, in increasing order."""
    offsets = [0]
    for e, s in zip(extent, strides):
        offsets = [o + k * s for o in offsets for k in range(e + 1)]
    return offsets


def box(alpha: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every w with 0 <= w <= alpha, in increasing index order."""
    return list(product(*(range(a + 1) for a in alpha)))


def gamma_partition_counts(alpha: tuple[int, ...]) -> list[int]:
    """counts[index(w)] = number of multisets of nonzero vectors summing to w."""
    strides, size = _strides(alpha)
    counts = [0] * size
    counts[0] = 1
    for v in box(alpha)[1:]:
        dv = _index(v, strides)
        extent = tuple(a - x for a, x in zip(alpha, v))
        # unbounded knapsack: increasing order lets a part repeat
        for off in _sub_box_offsets(extent, strides):
            counts[dv + off] += counts[off]
    return counts


def strata_count(alpha: tuple[int, ...]) -> int:
    """Number of pairs (beta, Gamma) with beta <= alpha, Gamma a partition of alpha - beta."""
    return sum(gamma_partition_counts(alpha))


def _coroots(rank: int) -> list[tuple[int, ...]]:
    """Positive coroots of SL(rank + 1) as 0/1 vectors with one block of ones."""
    return [
        tuple(1 if lo <= k <= hi else 0 for k in range(rank))
        for lo in range(rank)
        for hi in range(lo, rank)
    ]


def kostant_table(alpha: tuple[int, ...]) -> dict[tuple[int, ...], tuple[int, ...]]:
    """K_w(t) for every w <= alpha, as coefficient tuples without trailing zeros.

    A coroot of length L contributes t^(L-1): the exponent counted is
    |w| minus the number of coroots used.
    """
    strides, size = _strides(alpha)
    polys: list[list[int]] = [[] for _ in range(size)]
    polys[0] = [1]
    for c in _coroots(len(alpha)):
        if any(x > a for x, a in zip(c, alpha)):
            continue
        shift = sum(c) - 1
        dc = _index(c, strides)
        extent = tuple(a - x for a, x in zip(alpha, c))
        for off in _sub_box_offsets(extent, strides):
            src = polys[off]
            if not src:
                continue
            dst = polys[dc + off]
            need = len(src) + shift
            if len(dst) < need:
                dst.extend([0] * (need - len(dst)))
            for j, x in enumerate(src):
                dst[j + shift] += x
    return {w: tuple(polys[i]) for i, w in enumerate(box(alpha))}


def poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def poly_eval(a: tuple[int, ...], x: int) -> int:
    value = 0
    for c in reversed(a):
        value = value * x + c
    return value


def moduli_dim(alpha: tuple[int, ...]) -> int:
    n = len(alpha) + 1
    return 2 * sum(alpha) + n * (n - 1) // 2


def has_adjacent_support(alpha: tuple[int, ...]) -> bool:
    """Whether a coroot of length 2 fits under alpha.

    Smallness margins are additive over parts, 2*minparts(gamma) - 1 each,
    so the tightest stratum has margin 1 exactly when such a coroot fits;
    otherwise no stratum has a positive fiber dimension and the report is
    vacuous.
    """
    return any(a and b for a, b in zip(alpha, alpha[1:]))


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def lattice_count(rank: int, colength: int, q: int) -> int:
    """Number of rank-k lattices of the given colength over F_q[z]."""
    return sum(
        q ** sum(i * d for i, d in enumerate(diag)) for diag in _compositions(colength, rank)
    )


def oracle_work(gamma: tuple[int, ...], q: int) -> dict[str, int]:
    """Work the layer-by-layer chain filter does for (gamma, q).

    Layer k offers lattice_count(k, c_k, q) candidates to every surviving
    chain of layer k-1, and K_{(c_1..c_{k-1})}(q) chains survive there.
    """
    table = kostant_table(gamma)
    contains = lattices = 0
    for k in range(1, len(gamma) + 1):
        layer = lattice_count(k, gamma[k - 1], q)
        lattices += layer
        if k >= 2:
            prefix = gamma[: k - 1] + (0,) * (len(gamma) - k + 1)
            contains += poly_eval(table[prefix], q) * layer
    return {"contains": contains, "lattices": lattices, "chains": poly_eval(table[gamma], q)}
