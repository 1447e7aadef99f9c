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

from collections import OrderedDict
from operator import sub

# before `from . import kostant`, so that kostant loads by a path -X importtime logs
from .kostant import ONE, IntPolynomial, fiber_poincare
from . import kostant
from .limits import Caps, DEFAULT_CAPS, record, require_type
from .partitions import GammaPartition, _defect_segments, _gamma_partition, _gamma_vec
from .roots import GammaVec, _box, _require_vector, flag_dim


@record
class StratumRecord:
    """One stratum of the quasimap moduli for (n, alpha), with its numerics."""

    beta: GammaVec
    parts: GammaPartition
    m: int
    stratum_dim: int
    codim: int
    fiber_dim: int
    fiber_poincare: IntPolynomial


@record
class SmallnessRow:
    """Per-stratum margin of the smallness inequality codim > 2 * fiber_dim.

    margin is codim - 2*fiber_dim for strata with positive fiber dimension
    and None on strata where the inequality is vacuous.
    """

    record: StratumRecord
    margin: int | None
    ok: bool


@record
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


@record
class StalkEntry:
    degree: int
    twist: int
    multiplicity: int


@record
class ICStalkTable:
    """IC stalk summands over one stratum, one entry per nonzero coefficient."""

    n: int
    alpha: GammaVec
    beta: GammaVec
    parts: GammaPartition
    entries: tuple[StalkEntry, ...]


# records, rows, stalk entries and tables are valid by construction; they are built by
# keyword, so that a reorder of the int fields cannot put a value in the wrong slot
_record, _row = StratumRecord._unchecked, SmallnessRow._unchecked
_entry, _table = StalkEntry._unchecked, ICStalkTable._unchecked


# at least 4,241, the partitions of the distinct defects in an atlas pass of the benchmark
# (seeds 1-10), and 3,274, the strata of the largest listing among its command-line outputs
PARTITION_CACHE_SIZE = 8192
# defect coefficients -> (its gamma partitions in canonical order, its segments (v, start)
# with v by coefficients), oldest listing first; after each listing, at most
# PARTITION_CACHE_SIZE partitions in all. Every access is one OrderedDict call, so threads
# share it without a lock, as they share kostant's K cache: a race can cost a rebuild,
# never a wrong record.
_PARTITIONS: OrderedDict = OrderedDict()


def moduli_dim(n: int, alpha: GammaVec) -> int:
    """2|alpha| + dim B."""
    require_type("alpha", alpha, GammaVec)
    if alpha.n != n:
        raise ValueError("alpha rank context does not match n")
    return 2 * alpha.length + flag_dim(n)


def enumerate_strata(n: int, alpha: GammaVec, *, caps: Caps = DEFAULT_CAPS) -> list[StratumRecord]:
    """All strata for (n, alpha), one record per (beta, Gamma) pair.

    beta runs over the box 0 <= beta <= alpha in decreasing lexicographic
    order (the open stratum beta = alpha, Gamma empty comes first), and
    Gamma runs over gamma_partitions(alpha - beta) in its canonical order.

    The caps are checked once, and K_v(t) is read through the public
    kostant_poly once per nonzero box vector v <= alpha, alpha first, so
    that one count fills the cache for the whole box. The partitions of a
    defect d = alpha - beta are those of d - v with part v prepended, over
    the segments (v, start) of partitions._defect_segments, and their fiber
    polynomials are K_v(t) times those of d - v. The partitions and the
    segments of d depend on d alone: a module cache keeps them, keyed by d
    and bounded by PARTITION_CACHE_SIZE, so a later call whose box holds d
    neither builds them nor searches them again. The polynomials are not
    kept: every call reads K afresh and multiplies each of its few distinct
    products K_v(t) * tail once.
    """
    _require_vector("alpha", alpha, caps, n)
    dim_b = flag_dim(n)
    box, strides = _box(alpha.coeffs)
    vecs = [_gamma_vec(v) for v in box]
    kpolys = [ONE] * len(vecs)
    for i in range(len(vecs) - 1, 0, -1):
        kpolys[i] = kostant.kostant_poly(vecs[i], caps=caps)
    empty = _gamma_partition(n, ())
    out = [_record(
        beta=alpha,
        parts=empty,
        m=0,
        stratum_dim=2 * alpha.length + dim_b,
        codim=0,
        fiber_dim=0,
        fiber_poincare=ONE,
    )]
    # each defect's cache entry, read once, so that no trim can take it away mid-listing
    entries = [None, *map(_PARTITIONS.get, box[1:])]
    known = None
    if any(entries):
        index = {v: i for i, v in enumerate(box)}

        def known(d):
            # a cached defect's segments, with each v by its index in this box
            entry = entries[d]
            return None if entry is None else [(index[v], start) for v, start in entry[1]]

    # per defect index, its partitions and their fiber polynomials in canonical order
    partitions, polys = [(empty,)], [[ONE]]
    # per K_v(t), by coefficients: tail coefficients -> K_v(t) * tail, for this call only;
    # per box index v, the memo of K_v(t), or None where K_v(t) = 1 leaves every tail as it is
    products: dict = {}
    memos = [None if k.coeffs == (1,) else products.setdefault(k.coeffs, {}) for k in kpolys]
    added = False
    for d, segments in _defect_segments(box, strides, known):
        # alpha - defect sits at the index of alpha minus that of defect
        defect, beta = vecs[d], vecs[-1 - d]
        beta_dim = 2 * beta.length + dim_b
        defect_codim = 2 * defect.length
        entry, d_polys = entries[d], []
        # on a miss, the defect's partitions and its segments, v by coefficients
        built, kept = ([], []) if entry is None else (None, None)
        for v, start in segments:
            memo = memos[v]
            if memo is None:
                d_polys += polys[d - v][start:]
            else:
                for tail in polys[d - v][start:]:
                    poly = memo.get(tail.coeffs)
                    if poly is None:
                        poly = memo[tail.coeffs] = kpolys[v] * tail
                    d_polys.append(poly)
            if built is not None:
                head = (vecs[v],)
                for tail in partitions[d - v][start:]:
                    built.append(_gamma_partition(n, head + tail.parts))
                kept.append((box[v], start))
        if built is not None:
            entry = (built, kept)
            # a defect with more partitions than the cache holds would only empty it;
            # no list is changed once cached
            if len(built) <= PARTITION_CACHE_SIZE:
                _PARTITIONS[box[d]] = entry
                added = True
        d_parts = entry[0]
        partitions.append(d_parts)
        polys.append(d_polys)
        # the defects increase, so beta decreases
        for p, poly in zip(d_parts, d_polys):
            m = len(p.parts)
            out.append(_record(
                beta=beta,
                parts=p,
                m=m,
                stratum_dim=beta_dim + m,
                codim=defect_codim - m,
                # every K_v(t) is nonzero, so fiber_dim, poly's degree, is its length less one
                fiber_dim=len(poly.coeffs) - 1,
                fiber_poincare=poly,
            ))
    if added:
        _trim_partitions()
    return out


def _trim_partitions() -> None:
    """Drop the oldest defects until at most PARTITION_CACHE_SIZE partitions are held."""
    # list() copies the entries in one call, so another thread's listing cannot change them
    # under the sum; it can at worst make this drop more defects, or fewer, than needed
    held = sum([len(parts) for parts, _ in list(_PARTITIONS.values())])
    while held > PARTITION_CACHE_SIZE:
        try:
            held -= len(_PARTITIONS.popitem(last=False)[1][0])
        except KeyError:
            # another thread emptied the cache
            return


def smallness_report(n: int, alpha: GammaVec, *, caps: Caps = DEFAULT_CAPS) -> SmallnessReport:
    """Check codim > 2 * fiber_dim on every stratum of (n, alpha) with fiber_dim > 0.

    The aggregated form, min codim over strata with fiber_dim >= f above 2f
    for each f > 0, follows (codim > 2 * fiber_dim >= 2f) and is reported for
    display. A pass with no constrained stratum at all is flagged vacuous;
    otherwise min_margin and witness report the first tightest stratum.
    """
    rows = []
    # f -> min codim over the strata with fiber_dim exactly f > 0
    min_codim: dict[int, int] = {}
    min_margin = witness = None
    for rec in enumerate_strata(n, alpha, caps=caps):
        f = rec.fiber_dim
        margin = rec.codim - 2 * f if f > 0 else None
        rows.append(_row(record=rec, margin=margin, ok=margin is None or margin > 0))
        if f > 0:
            min_codim[f] = min(min_codim.get(f, rec.codim), rec.codim)
            if witness is None or margin < min_margin:
                min_margin, witness = margin, rec
    # cutting the last simple coroot off a coroot of length >= 2 in a part's
    # fewest-coroot cover lowers codim by 2 and fiber_dim by 0 or 1, so the
    # least codim at fiber_dim exactly f rises strictly with f: it is the
    # least over fiber_dim >= f
    aggregate = [(f, min_codim[f], min_codim[f] > 2 * f) for f in sorted(min_codim)]
    return SmallnessReport(
        n=n,
        alpha=alpha,
        passed=witness is None or min_margin > 0,
        vacuous=witness is None,
        min_margin=min_margin,
        witness=witness,
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
    valid: beta <= alpha and parts summing to alpha - beta. It is checked
    once, on coefficient tuples; no degree vector is built unless to word
    the error.
    """
    # the types and rank contexts of beta and parts, then alpha's checks in their order
    require_type("beta", beta, GammaVec)
    require_type("parts", parts, GammaPartition)
    if beta.n != n or parts.n != n:
        raise ValueError("rank contexts do not match n")
    _require_vector("alpha", alpha, caps, n)
    defect = tuple(map(sub, alpha.coeffs, beta.coeffs))
    if min(defect) < 0:
        raise ValueError(f"invalid stratum: beta = {beta} is not <= alpha = {alpha}")
    # the column sums of the parts; the empty partition sums to zero
    if (tuple(map(sum, zip(*[p.coeffs for p in parts.parts]))) or (0,) * len(defect)) != defect:
        raise ValueError(
            f"invalid stratum: parts sum to {parts.total}, expected {alpha - beta}"
        )
    poly = fiber_poincare(parts, caps=caps)
    base = -2 * alpha.length - flag_dim(n)
    entries = tuple(
        _entry(degree=base + 2 * j, twist=j, multiplicity=c)
        for j, c in enumerate(poly.coeffs)
        if c
    )
    return _table(n=n, alpha=alpha, beta=beta, parts=parts, entries=entries)


def parity_check(table: ICStalkTable) -> bool:
    """True when every stalk degree is congruent to dim B mod 2.

    It cannot fail on ic_stalk_table output, where degree - dim B =
    2(j - |alpha| - dim B); it guards tables rebuilt by ic_stalk_table_from_json.
    """
    require_type("table", table, ICStalkTable)
    dim_b = flag_dim(table.n)
    return all((entry.degree - dim_b) % 2 == 0 for entry in table.entries)
