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

from operator import sub

# before `from . import kostant`, so that kostant loads by a path -X importtime logs
from .kostant import ONE, IntPolynomial, fiber_poincare
from . import kostant
from .limits import Caps, DEFAULT_CAPS, record, require_int, require_type
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
    and None on strata where the inequality is vacuous. The verdict ok is
    read from it.
    """

    record: StratumRecord
    margin: int | None

    @property
    def ok(self) -> bool:
        return self.margin is None or self.margin > 0


@record
class SmallnessReport:
    """The smallness rows of (n, alpha), their first tightest stratum and its margin.

    The verdicts passed and vacuous are read from witness and min_margin.
    """

    n: int
    alpha: GammaVec
    min_margin: int | None
    witness: StratumRecord | None
    rows: tuple[SmallnessRow, ...]
    # one row (f, min codim over strata with fiber_dim >= f, ok) per occurring f > 0
    aggregate: tuple[tuple[int, int, bool], ...]

    def __post_init__(self) -> None:
        # a report names a witness exactly when it has a margin, so no verdict is left unread
        if (self.witness is None) is not (self.min_margin is None):
            raise ValueError(
                f"min_margin must be None exactly when witness is, got min_margin={self.min_margin!r}"
            )
        if self.witness is not None:
            require_type("witness", self.witness, StratumRecord)
            require_int("min_margin", self.min_margin, None)

    @property
    def passed(self) -> bool:
        return self.witness is None or self.min_margin > 0

    @property
    def vacuous(self) -> bool:
        return self.witness is None


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


# records, rows, reports, stalk entries and tables are valid by construction; they are built
# by keyword, so that a reorder of the int fields cannot put a value in the wrong slot
_record, _row, _report = StratumRecord._unchecked, SmallnessRow._unchecked, SmallnessReport._unchecked
_entry, _table = StalkEntry._unchecked, ICStalkTable._unchecked


# at least 566, the strata of the largest alpha in the benchmark's atlas pool, and 3,274,
# the strata of the largest listing among its command-line outputs
PARTITION_CACHE_SIZE = 8192
# None, or the last listing of at most PARTITION_CACHE_SIZE strata besides the open one, with
# what it is a function of: (alpha's coefficients, the K_v(t) it read by box index, its
# records). It is set by one assignment and nothing in it is changed once set, so threads
# share it without a lock: a race can cost a listing, never a wrong record.
_LAST = None


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
    that one count fills the cache for the whole box. The records are a
    function of alpha's coefficients and those K_v(t) alone, so the last
    listing of at most PARTITION_CACHE_SIZE strata besides the open one is
    kept with both, and a call that reads the same K for the same alpha,
    such as smallness_report's after enumerate_strata's, returns a new list
    of the kept records. Any other call lists: the partitions of a defect
    d = alpha - beta are those of d - v with part v prepended, over the
    segments (v, start) of partitions._defect_segments, and their fiber
    polynomials are K_v(t) times those of d - v, each of the few distinct
    products multiplied once.
    """
    global _LAST
    _require_vector("alpha", alpha, caps, n)
    box, strides = _box(alpha.coeffs)
    vecs = [_gamma_vec(v) for v in box]
    kpolys = [ONE] * len(vecs)
    for i in range(len(vecs) - 1, 0, -1):
        kpolys[i] = kostant.kostant_poly(vecs[i], caps=caps)
    last = _LAST
    if last is not None and last[0] == alpha.coeffs and last[1] == kpolys:
        return list(last[2])
    dim_b = flag_dim(n)
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
    # per defect index, its partitions in canonical order and their fiber polynomials
    partitions, polys = [(empty,)], [[ONE]]
    # per K_v(t), by coefficients: tail coefficients -> K_v(t) * tail, for this call only;
    # per box index v, the memo of K_v(t), or None where K_v(t) = 1 leaves every tail as it is
    products: dict = {}
    memos = [None if k.coeffs == (1,) else products.setdefault(k.coeffs, {}) for k in kpolys]
    for d, segments in _defect_segments(box, strides):
        # alpha - defect sits at the index of alpha minus that of defect
        defect, beta = vecs[d], vecs[-1 - d]
        beta_dim = 2 * beta.length + dim_b
        defect_codim = 2 * defect.length
        d_parts, d_polys = [], []
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
            head = (vecs[v],)
            for tail in partitions[d - v][start:]:
                d_parts.append(_gamma_partition(n, head + tail.parts))
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
    # a listing of more strata than the bound is not kept; the caller gets its own list
    if len(out) - 1 <= PARTITION_CACHE_SIZE:
        _LAST = (alpha.coeffs, kpolys, tuple(out))
    return out


def smallness_report(n: int, alpha: GammaVec, *, caps: Caps = DEFAULT_CAPS) -> SmallnessReport:
    """Check codim > 2 * fiber_dim on every stratum of (n, alpha) with fiber_dim > 0.

    The aggregated form, min codim over strata with fiber_dim >= f above 2f
    for each f > 0, follows (codim > 2 * fiber_dim >= 2f) and is reported for
    display. min_margin and witness report the first tightest stratum, or
    None when no stratum has fiber_dim > 0; such a report is vacuous.

    On this function's output the check cannot fail. A stratum with m > 0
    parts v of defect d has codim 2|d| - m, and its fiber_dim is the degree
    of a product, sum_v deg K_v. Since deg K_v <= |v| - 1, with equality iff
    v is a coroot (kostant_poly),

        codim - 2 fiber_dim = 2|d| - m - 2 sum_v deg K_v
                            = sum_v (2|v| - 1 - 2 deg K_v) >= m,

    with equality iff every part is a coroot. So passed is always true, and
    the margin is 1 exactly on the one-part strata whose part is a coroot of
    length >= 2. There is such a stratum iff some stratum has fiber_dim > 0,
    iff alpha has two adjacent nonzero coefficients, so min_margin is 1
    exactly when the report is not vacuous.
    """
    rows = []
    # f -> min codim over the strata with fiber_dim exactly f > 0
    min_codim: dict[int, int] = {}
    min_margin = witness = None
    for rec in enumerate_strata(n, alpha, caps=caps):
        f = rec.fiber_dim
        margin = rec.codim - 2 * f if f > 0 else None
        rows.append(_row(record=rec, margin=margin))
        if f > 0:
            min_codim[f] = min(min_codim.get(f, rec.codim), rec.codim)
            if witness is None or margin < min_margin:
                min_margin, witness = margin, rec
    # cutting the last simple coroot off a coroot of length >= 2 in a part's
    # fewest-coroot cover lowers codim by 2 and fiber_dim by 0 or 1, so the
    # least codim at fiber_dim exactly f rises strictly with f: it is the
    # least over fiber_dim >= f
    aggregate = [(f, min_codim[f], min_codim[f] > 2 * f) for f in sorted(min_codim)]
    return _report(
        n=n,
        alpha=alpha,
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
