"""Finite-field lattice oracle: brute-force fiber counting over F_q[z].

This module is the package's independent check on the combinatorial
calculus. It builds actual chains of modules over F_q[z] and counts them,
while the partition/polynomial side predicts the counts; the two share no
code beyond the Triangle container, so agreement between them is evidence,
not tautology.

Representation
--------------
Work happens in the free module R^k over R = F_q[z], modelling a vector
bundle near one point (z is the local coordinate). A *lattice* is a
full-rank submodule L of R^k whose quotient R^k/L has finite length and is
killed by a power of z, i.e. all defect is concentrated at z = 0. Its
*colength* is that length, and a colength-c lattice always contains
z^c * R^k.

Every lattice has exactly one canonical basis, stored as the columns of an
upper-triangular k x k matrix B:

  * B[j][j] = z^(d_j), a monic power of z (the pivot of column j);
  * B[i][j] = 0 for i > j (nothing below the pivot);
  * for i < j the entry B[i][j] is reduced modulo the pivot of *row* i,
    i.e. deg B[i][j] < d_i.

The colength is d_1 + ... + d_k. Existence follows from column reduction
over R; uniqueness of this exact reduction rule is proved exhaustively in
the test suite by double enumeration against an independent linear-algebra
enumeration of z-stable subspaces.

A member of L with zero trailing k - m coordinates has zero coefficients
on the last k - m columns (read the pivots from the bottom row up), so the
leading m x m block is the canonical basis of L n R^m. A rank-k basis is
thus its *lead*, the block for m = k - 1, plus a last column: a pivot z^d
under free residues modulo the lead's pivots. One lister, _diag_bases,
grows the bases of each pivot diagonal this way, for enumerate_lattices
and the chain counts alike. What it lists is canonical by construction, so
the lattices built from it, their leading blocks and the chains skip the
checks that the public constructors keep.

A FlagChain is a sequence L_1 c L_2 c ... c L_{n-1} with L_k of rank k and
prescribed colength c_k, where rank k sits inside rank k+1 as the first k
coordinates, so L_k c L_{k+1} exactly when L_k lies in the lead of L_{k+1}.
Its mu invariants, the colengths of L_p n R^q, are the pivot prefix sums
d_1 + ... + d_q. fiber_point_count buckets chains by mu, under the oracle
caps alone; verify_against_kostant, the one bridge to the partition
calculus, compares the buckets with the predicted counts q^stratum_dim.

Counting
--------
x -> B_M x maps R^k onto the lattice M, so the lattices inside M are the
products B_M B_X over all lattices X, each reached once (the
elementary-divisor picture of Macdonald, Symmetric Functions and Hall
Polynomials, ch. II). The product is upper-triangular with pivots
z^(diag M + diag X), so canonicalising it only reduces entries modulo the
row pivots. Chains are therefore grown as a transfer over distinct
lattices: the state at layer k maps each L_k to what the chains ending at
it carry, a Counter of mu-row prefixes for fiber_point_count and the
chains themselves for enumerate_fiber_chains. For each lead M of colength
at most min(c_k, c_(k+1)), the states inside M are found by generating
the products of each state diagonal above diag(M) and looking them up; no
containment is tested. The extensions of M to L_(k+1) share one mu row,
so they share one Counter, and at the last layer their number, q^colength(M),
is multiplied in instead of building them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, product

# before `from . import gfpoly`, so that gfpoly loads by a path -X importtime logs
from .gfpoly import Poly
from . import gfpoly as gf
from .kostant import kostant_poly
from .limits import Caps, DEFAULT_CAPS, CapExceededError, require_rank
from .partitions import Triangle, _unchecked, mu_triangles, stratum_dim
from .roots import GammaVec

Column = tuple[Poly, ...]
Basis = tuple[Column, ...]


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(q: int) -> bool:
    """Miller-Rabin to the first 13 prime bases.

    Exact for q < 3.3 * 10^24 (Sorenson and Webster, 2015); above that, a
    composite passes only as a strong pseudoprime to all 13 bases.
    """
    if q < 2 or any(q % p == 0 for p in _PRIME_BASES):
        return q in _PRIME_BASES
    s = ((q - 1) & (1 - q)).bit_length() - 1  # q - 1 = d * 2^s with d odd
    for a in _PRIME_BASES:
        x = pow(a, (q - 1) >> s, q)
        if x == 1:
            continue
        for _ in range(s):
            if x == q - 1:
                break
            x = x * x % q
        else:
            return False
    return True


def _require_prime(q: int) -> None:
    # refused before the test, which takes seconds at thousands of bits
    if isinstance(q, int) and q.bit_length() > 1024:
        raise CapExceededError(f"q of {q.bit_length()} bits exceeds the 1024-bit primality limit")
    # small primes such as the default q in {2, 3} skip the call
    if not isinstance(q, int) or not (q in _PRIME_BASES or _is_prime(q)):
        raise ValueError(f"q must be a prime, got {q!r}")


@dataclass(frozen=True)
class Lattice:
    """A finite-colength submodule of R^rank in canonical upper-triangular form.

    cols[j][i] is the row-i entry of basis column j. The constructor insists
    on the canonical shape, so distinct Lattice values are distinct
    submodules and equality/hashing is structural.
    """

    rank: int
    q: int
    cols: Basis

    def __post_init__(self) -> None:
        _require_prime(self.q)
        k = self.rank
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"rank must be a positive integer, got {k!r}")
        if len(self.cols) != k or any(len(col) != k for col in self.cols):
            raise ValueError("basis must be a square matrix of columns")
        for col in self.cols:
            for entry in col:
                if any(not isinstance(c, int) or not 0 <= c < self.q for c in entry):
                    raise ValueError("polynomial coefficients must lie in [0, q)")
                if entry and entry[-1] == 0:
                    raise ValueError("polynomials must be trimmed")
        diag = []
        for j, col in enumerate(self.cols):
            if any(col[j + 1 :]):
                raise ValueError("entries below the pivot must vanish")
            if not gf.is_z_power(col[j]):
                raise ValueError(f"pivot of column {j} must be a monic power of z")
            for i in range(j):
                if gf.degree(col[i]) >= diag[i]:
                    raise ValueError(
                        f"entry at row {i}, column {j} is not reduced modulo its row pivot"
                    )
            diag.append(gf.degree(col[j]))

    @property
    def diag(self) -> tuple[int, ...]:
        """Pivot exponents (d_1, ..., d_k)."""
        return _diag(self.cols)

    @property
    def colength(self) -> int:
        return sum(self.diag)

    @classmethod
    def full(cls, rank: int, q: int) -> "Lattice":
        """The ambient module R^rank itself (colength 0)."""
        cols = tuple(
            tuple(gf.ONE if i == j else gf.ZERO for i in range(rank)) for j in range(rank)
        )
        return cls(rank, q, cols)

    @classmethod
    def from_generators(cls, rank: int, q: int, vectors) -> "Lattice":
        """Canonicalize any generating set of a full-rank z-local submodule."""
        # checked before canonicalizing, which never ends for q = 1
        _require_prime(q)
        cols = _canonical_columns([tuple(v) for v in vectors], rank, q)
        return cls(rank, q, cols)


def _diag(cols: Basis) -> tuple[int, ...]:
    return tuple(gf.degree(col[j]) for j, col in enumerate(cols))


def _pivot_row(columns: list[Column], row: int, q: int) -> tuple[Column | None, list[Column]]:
    """Concentrate the row's entries into one column by unimodular combinations.

    Returns (pivot, rest) where pivot carries the gcd of the original row
    entries (None when the row vanishes identically) and every column in
    rest has a zero in the row. The span of the columns is unchanged.
    """
    pivot = None
    rest = []
    for col in columns:
        if not col[row]:
            rest.append(col)
            continue
        if pivot is None:
            pivot = col
            continue
        a, b = pivot[row], col[row]
        g, x, y = gf.xgcd(a, b, q)
        u = gf.divmod_poly(b, g, q)[0]
        v = gf.divmod_poly(a, g, q)[0]
        merged = tuple(
            gf.add(gf.mul(x, pc, q), gf.mul(y, cc, q), q) for pc, cc in zip(pivot, col)
        )
        cleared = tuple(
            gf.sub(gf.mul(u, pc, q), gf.mul(v, cc, q), q) for pc, cc in zip(pivot, col)
        )
        pivot = merged
        rest.append(cleared)
    return pivot, rest


def _canonical_columns(gens: list[Column], k: int, q: int) -> Basis:
    if any(len(col) != k for col in gens):
        raise ValueError("generator length does not match the rank")
    work = list(gens)
    basis: list[Column] = []
    for row in range(k - 1, -1, -1):
        pivot, work = _pivot_row(work, row, q)
        if pivot is None:
            raise ValueError("generators do not span a full-rank submodule")
        lead = pivot[row]
        pivot = tuple(gf.scale(entry, pow(lead[-1], -1, q), q) for entry in pivot)
        if not gf.is_z_power(pivot[row]):
            raise ValueError("span is not z-local: a pivot ideal is not a power of z")
        # reduce this row of the later columns modulo z^d; only rows above change later
        d = gf.degree(pivot[row])
        for j, col in enumerate(basis):
            quo = col[row][d:]
            if quo:
                basis[j] = tuple(gf.sub(bc, gf.mul(quo, pc, q), q) for bc, pc in zip(col, pivot))
        basis.insert(0, pivot)
    return tuple(basis)


def _extensions(lead: Basis, d: int, q: int):
    """Every canonical basis with leading block lead and last pivot z^d."""
    grown = tuple(col + (gf.ZERO,) for col in lead)
    # row i takes every residue modulo z^(d_i), in lexicographic coefficient order
    pools = [[gf.trim(cs) for cs in product(range(q), repeat=d_i)] for d_i in _diag(lead)]
    for above in product(*pools):
        yield grown + (above + (gf.monomial(d),),)


def _diagonals(rank: int, colength: int) -> list[tuple[int, ...]]:
    """Pivot diagonals of rank and colength: the last pivot increasing, then the lead's order."""
    if rank == 0:
        return [()] if colength == 0 else []
    return [lead + (d,) for d in range(colength + 1) for lead in _diagonals(rank - 1, colength - d)]


def _check_volume(rank: int, colength: int, q: int, caps: Caps) -> None:
    # N_k(c) = sum over c' <= c of q^c' * N_(k-1)(c'): q^c' last columns per lead
    counts = [1] + [0] * colength  # rank 0: only the empty basis
    for _ in range(rank):
        counts = list(accumulate(q**c * count for c, count in enumerate(counts)))
    if counts[colength] > caps.max_lattice_volume:
        raise CapExceededError(
            f"{counts[colength]} candidate lattices exceed the volume cap {caps.max_lattice_volume}"
        )


def enumerate_lattices(rank: int, colength: int, q: int, *, caps: Caps = DEFAULT_CAPS) -> list[Lattice]:
    """Every lattice of the given rank and colength, each exactly once.

    Lattices are grouped by the colength of their lead, largest first, the
    leads in this order one rank down, and the free last-column entries run
    through all residues modulo the lead's pivots in lexicographic order.
    Because the canonical form is unique, distinct emitted matrices are
    distinct lattices and the list is exhaustive. The bases come by diagonal
    from _diag_bases, as the chain counts read them, and are built unchecked
    once q, rank, colength and the volume cap pass.
    """
    _require_prime(q)
    if not isinstance(rank, int) or rank < 1:
        raise ValueError(f"rank must be a positive integer, got {rank!r}")
    if not isinstance(colength, int) or colength < 0:
        raise ValueError(f"colength must be a nonnegative integer, got {colength!r}")
    _check_volume(rank, colength, q, caps)
    bases = _diag_bases(q)
    return [_unchecked(Lattice, rank, q, cols) for diag in _diagonals(rank, colength) for cols in bases(diag)]


def contains(outer: Lattice, inner: Lattice) -> bool:
    """Whether every basis vector of inner lies in outer.

    inner may have smaller rank; its vectors are read inside the outer
    module via the first-coordinates embedding. Membership is decided by
    back substitution against the triangular basis, where each step needs
    an exact division by the pivot z^(d_i).
    """
    if inner.q != outer.q:
        raise ValueError("lattices live over different fields")
    if inner.rank > outer.rank:
        raise ValueError(f"inner rank {inner.rank} exceeds outer rank {outer.rank}")
    return _contains(outer.cols, inner.cols, outer.q)


def _contains(outer: Basis, inner: Basis, q: int) -> bool:
    k = len(outer)
    for col in inner:
        v = list(col) + [gf.ZERO] * (k - len(col))
        for i in range(k - 1, -1, -1):
            if not v[i]:
                continue
            quo = gf.div_z_power(v[i], gf.degree(outer[i][i]))
            if quo is None:
                return False
            for r in range(i + 1):
                v[r] = gf.sub(v[r], gf.mul(quo, outer[i][r], q), q)
    return True


def coordinate_intersection(lat: Lattice, m: int) -> Lattice:
    """The lattice L n R^m inside the first m coordinates: the leading m x m block."""
    if not 1 <= m <= lat.rank:
        raise ValueError(f"coordinate count must be in 1..{lat.rank}, got {m}")
    return _unchecked(Lattice, m, lat.q, tuple(col[:m] for col in lat.cols[:m]))


@dataclass(frozen=True)
class FlagChain:
    """A nested chain L_1 c ... c L_{n-1} with colength(L_k) = c_k(gamma)."""

    n: int
    q: int
    gamma: GammaVec
    lattices: tuple[Lattice, ...]

    def __post_init__(self) -> None:
        if self.gamma.n != self.n:
            raise ValueError("gamma rank context does not match n")
        if len(self.lattices) != self.n - 1:
            raise ValueError(f"expected {self.n - 1} lattices, got {len(self.lattices)}")
        for k, lat in enumerate(self.lattices, start=1):
            if lat.rank != k:
                raise ValueError(f"member {k} has rank {lat.rank}")
            if lat.q != self.q:
                raise ValueError("chain members live over different fields")
            if lat.colength != self.gamma.coeff(k):
                raise ValueError(
                    f"member {k} has colength {lat.colength}, expected {self.gamma.coeff(k)}"
                )
        for prev, nxt in zip(self.lattices, self.lattices[1:]):
            if not contains(nxt, prev):
                raise ValueError("chain members are not nested")


def _check_oracle_caps(n: int, gamma: GammaVec, q: int, caps: Caps) -> None:
    _require_prime(q)
    require_rank(n)
    if gamma.n != n:
        raise ValueError("gamma rank context does not match n")
    if n > caps.oracle_max_rank:
        raise CapExceededError(f"n = {n} exceeds the oracle rank cap {caps.oracle_max_rank}")
    if gamma.length > caps.oracle_max_length:
        raise CapExceededError(
            f"|gamma| = {gamma.length} exceeds the oracle length cap {caps.oracle_max_length}"
        )
    if q not in caps.oracle_primes:
        raise CapExceededError(f"q = {q} is not among the allowed primes {caps.oracle_primes}")
    for k, colength in enumerate(gamma.coeffs, start=1):
        _check_volume(k, colength, q, caps)


def enumerate_fiber_chains(
    n: int, gamma: GammaVec, q: int, *, caps: Caps = DEFAULT_CAPS
) -> list[FlagChain]:
    """All flag chains over F_q with colength profile gamma, layer by layer.

    Each distinct L_k is built as a Lattice once; the lattices and the chains
    skip the checks.
    """
    _check_oracle_caps(n, gamma, q, caps)
    profile = (0,) + gamma.coeffs
    bases = _diag_bases(q)
    # each L_k with the chains that end at it
    states: dict[Basis, list[tuple[Lattice, ...]]] = {(): [()]}
    for k in range(n - 1):
        grown = {}
        for lead, diag, inside in _leads_over(states, min(profile[k], profile[k + 1]), q, bases):
            chains = [chain for cols in inside for chain in states[cols]]
            for cols in _extensions(lead, profile[k + 1] - sum(diag), q):
                lat = _unchecked(Lattice, k + 1, q, cols)
                grown[cols] = [chain + (lat,) for chain in chains]
        states = grown
    return [_unchecked(FlagChain, n, q, gamma, chain) for chains in states.values() for chain in chains]


def _diag_bases(q: int):
    """Canonical bases by diagonal, grown from their leads by _extensions; memoised."""
    memo: dict[tuple[int, ...], list[Basis]] = {(): [()]}

    def bases(diag: tuple[int, ...]) -> list[Basis]:
        if diag not in memo:
            leads = bases(diag[:-1])
            memo[diag] = [cols for lead in leads for cols in _extensions(lead, diag[-1], q)]
        return memo[diag]

    return bases


def _sublattices(outer: Basis, diag: tuple[int, ...], q: int, bases):
    """Canonical bases of every L in outer with diag(L) = diag, each exactly once.

    x -> B_outer x maps R^k onto outer, so L runs once through the images
    B_outer B_X of the lattices X of diagonal diag - diag(outer). The product
    is upper-triangular with pivots z^(diag_j); canonicalising it only
    reduces each column from the bottom row up modulo the row pivots.
    """
    shift = tuple(d - e for d, e in zip(diag, _diag(outer)))
    for inner in bases(shift):
        out: list[Column] = []
        for j, xcol in enumerate(inner):
            col = [gf.ZERO] * len(inner)
            for i, x in enumerate(xcol[: j + 1]):
                if x:
                    for r, entry in enumerate(outer[i][: i + 1]):
                        col[r] = gf.add(col[r], gf.mul(x, entry, q), q)
            for i in range(j - 1, -1, -1):
                quo = col[i][diag[i] :]
                if quo:
                    col[i] = gf.trim(col[i][: diag[i]])
                    for r in range(i):
                        col[r] = gf.sub(col[r], gf.mul(quo, out[i][r], q), q)
            out.append(tuple(col))
        yield tuple(out)


def _leads_over(states, colength: int, q: int, bases):
    """Each lead that contains a state, with its diagonal and the states inside it.

    states is keyed by canonical bases of rank k. A lead of rank k that
    contains one has colength at most colength and a diagonal below the
    state's entry by entry, so the leads are read off bases() by diagonal
    and a lead that contains no state is never built.
    """
    floors: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for diag in dict.fromkeys(map(_diag, states)):
        for floor in product(*(range(d + 1) for d in diag)):
            if sum(floor) <= colength:
                floors.setdefault(floor, []).append(diag)
    for floor, above in floors.items():
        for lead in bases(floor):
            inside = [
                cols
                for diag in above
                for cols in _sublattices(lead, diag, q, bases)
                if cols in states
            ]
            if inside:
                yield lead, floor, inside


def mu_invariants(chain: FlagChain) -> Triangle:
    """The mu triangle of a chain: mu_{pq} = colength of L_p n R^q."""
    # L_p n R^q is the leading q x q block, of colength d_1 + ... + d_q
    rows = tuple(tuple(accumulate(lat.diag)) for lat in chain.lattices)
    return Triangle(n=chain.n, kind="mu", rows=rows)


@dataclass
class FiberCount:
    """Chain total plus the per-mu bucket counts, in mu order."""

    total: int
    buckets: dict[Triangle, int]


def fiber_point_count(
    n: int, gamma: GammaVec, q: int, *, caps: Caps = DEFAULT_CAPS
) -> FiberCount:
    """Count chains and bucket them by mu invariant, under the oracle caps only.

    Buckets are sorted by the entries below the diagonal read column by
    column, the order of mu_triangles, without calling the calculus; a mu
    that no coroot partition predicts is sorted in among the rest, and
    verify_against_kostant reports it.
    """
    _check_oracle_caps(n, gamma, q, caps)
    counts = _mu_row_counts(n, gamma, q)
    buckets = {_unchecked(Triangle, n, "mu", rows): count for rows, count in counts.items()}
    return FiberCount(total=sum(counts.values()), buckets=buckets)


def _mu_row_counts(n: int, gamma: GammaVec, q: int) -> dict:
    """The number of chains with each mu, by its rows, in mu order; caps unchecked."""
    profile = (0,) + gamma.coeffs
    bases = _diag_bases(q)
    # each L_k with the mu rows of the chains that end at it, counted
    states: dict[Basis, Counter] = {(): Counter({(): 1})}
    raw: Counter = Counter()
    for k in range(n - 1):
        grown = {}
        for lead, diag, inside in _leads_over(states, min(profile[k], profile[k + 1]), q, bases):
            rows = Counter()
            for cols in inside:
                rows.update(states[cols])
            # every extension of the lead has the same diagonal, so the same mu row
            c = sum(diag)
            row = tuple(accumulate(diag + (profile[k + 1] - c,)))
            extended = Counter({prefix + (row,): count for prefix, count in rows.items()})
            if k < n - 2:
                grown.update(dict.fromkeys(_extensions(lead, profile[k + 1] - c, q), extended))
            else:
                # the last layer is counted, not built: q^c last columns per lead
                raw.update({prefix: count * q**c for prefix, count in extended.items()})
        states = grown
    # the diagonal is gamma's coefficients, so the entries below it decide the order
    order = sorted(raw, key=lambda rows: [row[j] for j in range(n - 2) for row in rows[j + 1 :]])
    return {rows: raw[rows] for rows in order}


@dataclass(frozen=True)
class BucketCheck:
    mu: Triangle
    expected: int
    actual: int

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


@dataclass(frozen=True)
class OracleReport:
    """Outcome of checking brute-force counts against the predicted values."""

    n: int
    gamma: GammaVec
    q: int
    total_expected: int
    total_actual: int
    missing_mu: tuple[Triangle, ...]
    unexpected_mu: tuple[Triangle, ...]
    buckets: tuple[BucketCheck, ...]

    @property
    def total_ok(self) -> bool:
        return self.total_expected == self.total_actual

    @property
    def keys_ok(self) -> bool:
        return not self.missing_mu and not self.unexpected_mu

    @property
    def buckets_ok(self) -> bool:
        return all(b.ok for b in self.buckets)

    @property
    def passed(self) -> bool:
        return self.total_ok and self.keys_ok and self.buckets_ok


def verify_against_kostant(
    n: int, gamma: GammaVec, q: int, *, caps: Caps = DEFAULT_CAPS
) -> OracleReport:
    """Compare the oracle with the partition calculus, the one bridge between them.

    The oracle caps, once, and then the calculus caps are checked before the
    first chain. Then (a) the chain total must equal K_gamma(q); (b) the bucket
    keys must be exactly the mu triangles of gamma's coroot partitions; (c)
    each bucket must hold q^stratum_dim(mu) chains. Any discrepancy lands in
    the report with its witnesses; nothing is swallowed.
    """
    _check_oracle_caps(n, gamma, q, caps)
    expected_mus = mu_triangles(gamma, caps=caps)
    total_expected = kostant_poly(gamma, caps=caps).eval_at(q)
    # every triangle here has rank n and kind "mu", so the rows identify it
    counts = _mu_row_counts(n, gamma, q)
    expected_rows = {mu.rows for mu in expected_mus}
    missing = tuple(mu for mu in expected_mus if mu.rows not in counts)
    unexpected = tuple(_unchecked(Triangle, n, "mu", r) for r in counts if r not in expected_rows)
    checks = tuple(BucketCheck(mu, q ** stratum_dim(mu), counts.get(mu.rows, 0)) for mu in expected_mus)
    total = sum(counts.values())
    return OracleReport(n, gamma, q, total_expected, total, missing, unexpected, checks)
