"""Stratification atlas, smallness verification, and IC stalk tables.

The moduli space attached to (n, alpha) has dimension 2|alpha| + dim B,
where B is the full flag variety of SL(n). Its strata are indexed by pairs
(beta, Gamma) with beta <= alpha componentwise and Gamma a partition of
alpha - beta into m nonzero degree vectors:

    stratum_dim = 2|beta| + dim B + m        codim = 2|alpha - beta| - m

so the two always add up to the moduli dimension. The fiber of the
resolution over a stratum point has Poincare polynomial
prod_r K_{gamma_r}(t) over the parts of Gamma, whose degree f is the fiber
dimension. The resolution is small exactly when codim > 2f on every stratum
with f > 0, and the IC stalk at the stratum is read off the same
polynomial: coefficient j contributes a summand in cohomological degree
-2|alpha| - dim B + 2j with Tate twist j.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import kostant
from .kostant import ONE, IntPolynomial, fiber_poincare
from .limits import Caps, DEFAULT_CAPS, check_length, check_rank
from .partitions import GammaPartition, _gamma_partition, _part_tuples
from .roots import GammaVec, flag_dim


@dataclass(frozen=True)
class StratumRecord:
    """One stratum of the quasimap moduli for (n, alpha), with its numerics."""

    beta: GammaVec
    parts: GammaPartition
    m: int
    stratum_dim: int
    codim: int
    fiber_dim: int
    fiber_poincare: IntPolynomial


@dataclass(frozen=True)
class SmallnessRow:
    """Per-stratum margin of the smallness inequality codim > 2 * fiber_dim.

    margin is codim - 2*fiber_dim for strata with positive fiber dimension
    and None on strata where the inequality is vacuous.
    """

    record: StratumRecord
    margin: int | None
    ok: bool


@dataclass(frozen=True)
class SmallnessReport:
    n: int
    alpha: GammaVec
    passed: bool
    vacuous: bool
    min_margin: int | None
    witness: StratumRecord | None
    rows: tuple[SmallnessRow, ...]
    # one row (f, min codim over strata with fiber_dim >= f, ok) per occurring f > 0
    aggregate: tuple[tuple[int, int, bool], ...]


@dataclass(frozen=True)
class StalkEntry:
    degree: int
    twist: int
    multiplicity: int


@dataclass(frozen=True)
class ICStalkTable:
    """IC stalk summands over one stratum, one entry per nonzero coefficient."""

    n: int
    alpha: GammaVec
    beta: GammaVec
    parts: GammaPartition
    entries: tuple[StalkEntry, ...]


def moduli_dim(n: int, alpha: GammaVec) -> int:
    """2|alpha| + dim B."""
    if alpha.n != n:
        raise ValueError("alpha rank context does not match n")
    return 2 * alpha.length + flag_dim(n)


def enumerate_strata(n: int, alpha: GammaVec, *, caps: Caps = DEFAULT_CAPS) -> list[StratumRecord]:
    """All strata for (n, alpha), one record per (beta, Gamma) pair.

    beta runs over the box 0 <= beta <= alpha in decreasing lexicographic
    order (the open stratum beta = alpha, Gamma empty comes first), and
    Gamma runs over gamma_partitions(alpha - beta) in its canonical order.

    The caps are checked once, and K_v(t) is read through the public
    kostant_poly once per nonzero box vector v <= alpha, each of which is a
    part of some stratum. The fiber polynomial of the parts (v, *tail) is
    K_v(t) times that of tail, which is the part tuple of the stratum at
    beta + v and so was listed earlier (the open stratum, with no parts, is
    first): one product per stratum.
    """
    check_rank(n, caps)
    if alpha.n != n:
        raise ValueError("alpha rank context does not match n")
    check_length(alpha.length, caps)
    dim_b = flag_dim(n)
    # one memo for all defects alpha - beta
    memo: dict = {}
    vecs = {v: GammaVec(v) for v in product(*(range(a + 1) for a in alpha.coeffs)) if any(v)}
    kpolys = {v: kostant.kostant_poly(vec, caps=caps) for v, vec in vecs.items()}
    # part tuple -> its record, local so nothing outlives the call
    by_parts: dict = {}
    for beta_coeffs in product(*(range(a, -1, -1) for a in alpha.coeffs)):
        beta = GammaVec(beta_coeffs)
        defect = tuple(a - b for a, b in zip(alpha.coeffs, beta_coeffs))
        for part_tuple in _part_tuples(defect, defect, memo):
            if part_tuple:
                v, tail = part_tuple[0], by_parts[part_tuple[1:]]
                parts = _gamma_partition(n, (vecs[v],) + tail.parts.parts)
                poly = kpolys[v] * tail.fiber_poincare
            else:
                parts, poly = _gamma_partition(n, ()), ONE
            by_parts[part_tuple] = StratumRecord(
                beta=beta,
                parts=parts,
                m=parts.m,
                stratum_dim=2 * beta.length + dim_b + parts.m,
                codim=2 * sum(defect) - parts.m,
                # every K_v(t) is nonzero, so poly has a degree
                fiber_dim=poly.degree,
                fiber_poincare=poly,
            )
    # each part tuple names one stratum, and dicts keep insertion order
    return list(by_parts.values())


def smallness_report(n: int, alpha: GammaVec, *, caps: Caps = DEFAULT_CAPS) -> SmallnessReport:
    """Check codim > 2 * fiber_dim on every stratum of (n, alpha) with fiber_dim > 0.

    The aggregated form, min codim over strata with fiber_dim >= f above 2f
    for each f > 0, follows (codim > 2 * fiber_dim >= 2f) and is reported for
    display. A pass with no constrained stratum at all is flagged vacuous;
    otherwise min_margin and witness report the tightest stratum.
    """
    records = enumerate_strata(n, alpha, caps=caps)
    rows = []
    for rec in records:
        if rec.fiber_dim > 0:
            margin = rec.codim - 2 * rec.fiber_dim
            rows.append(SmallnessRow(rec, margin, margin > 0))
        else:
            rows.append(SmallnessRow(rec, None, True))
    constrained = [row for row in rows if row.margin is not None]
    dims = sorted({rec.fiber_dim for rec in records if rec.fiber_dim > 0})
    aggregate = []
    for f in dims:
        min_codim = min(rec.codim for rec in records if rec.fiber_dim >= f)
        aggregate.append((f, min_codim, min_codim > 2 * f))
    passed = all(row.ok for row in rows)
    witness_row = min(constrained, key=lambda row: row.margin, default=None)
    return SmallnessReport(
        n=n,
        alpha=alpha,
        passed=passed,
        vacuous=not constrained,
        min_margin=witness_row.margin if witness_row else None,
        witness=witness_row.record if witness_row else None,
        rows=tuple(rows),
        aggregate=tuple(aggregate),
    )


def ic_stalk_table(
    n: int,
    alpha: GammaVec,
    beta: GammaVec,
    parts: GammaPartition,
    *,
    caps: Caps = DEFAULT_CAPS,
) -> ICStalkTable:
    """Stalk summands of the IC sheaf over the stratum (beta, parts).

    Entry j is (-2|alpha| - dim B + 2j, twist j, coefficient j of the fiber
    polynomial), listed for nonzero coefficients only. The stratum must be
    valid: beta <= alpha and parts summing to alpha - beta.
    """
    check_rank(n, caps)
    if alpha.n != n or beta.n != n or parts.n != n:
        raise ValueError("rank contexts do not match n")
    check_length(alpha.length, caps)
    if not beta.leq(alpha):
        raise ValueError(f"invalid stratum: beta = {beta} is not <= alpha = {alpha}")
    if parts.total != alpha - beta:
        raise ValueError(
            f"invalid stratum: parts sum to {parts.total}, expected {alpha - beta}"
        )
    poly = fiber_poincare(parts, caps=caps)
    base = -2 * alpha.length - flag_dim(n)
    entries = tuple(
        StalkEntry(degree=base + 2 * j, twist=j, multiplicity=c)
        for j, c in enumerate(poly.coeffs)
        if c
    )
    return ICStalkTable(n=n, alpha=alpha, beta=beta, parts=parts, entries=entries)


def parity_check(table: ICStalkTable) -> bool:
    """True when every stalk degree is congruent to dim B mod 2.

    It cannot fail on ic_stalk_table output, where degree - dim B =
    2(j - |alpha| - dim B); it guards tables rebuilt by ic_stalk_table_from_json.
    """
    dim_b = flag_dim(table.n)
    return all((entry.degree - dim_b) % 2 == 0 for entry in table.entries)
