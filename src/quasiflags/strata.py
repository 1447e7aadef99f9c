"""Stratification atlas, smallness verification, and IC stalk tables.

The moduli space attached to (n, alpha) has dimension 2|alpha| + dim B,
where B is the full flag variety of SL(n). Its strata are indexed by pairs
(beta, Gamma) with beta <= alpha componentwise and Gamma a partition of
alpha - beta into m nonzero degree vectors:

    stratum_dim = 2|beta| + dim B + m        codim = 2|alpha - beta| - m

so the two always add up to the moduli dimension. The fiber of the
resolution over a stratum point has Poincare polynomial
prod_r K_{gamma_r}(t) over the parts of Gamma, whose degree f is the fiber
dimension. A StratumRecord holds beta, Gamma and that polynomial, and
reads every other number of the stratum from them. The resolution is small
exactly when codim > 2f on every stratum with f > 0, and the IC stalk at
the stratum is read off the same polynomial: coefficient j contributes a
summand in cohomological degree -2|alpha| - dim B + 2j with Tate twist j.
"""

from __future__ import annotations

from operator import sub

# before `from . import kostant`, so that kostant loads by a path -X importtime logs
from .kostant import ONE, IntPolynomial, _int_polynomial, fiber_poincare
from . import kostant
from .limits import Caps, DEFAULT_CAPS, record, require_int, require_type
from .partitions import GammaPartition, _defect_segments, _gamma_partition, _gamma_vec
from .roots import GammaVec, _box, _require_vector, flag_dim


@record
class StratumRecord:
    """One stratum (beta, Gamma) of the quasimap moduli for (n, alpha), with its fiber polynomial.

    m, stratum_dim, codim and fiber_dim are read-only properties of the
    fields, read from their coefficient tuples.
    """

    beta: GammaVec
    parts: GammaPartition
    fiber_poincare: IntPolynomial

    def __post_init__(self) -> None:
        # the kinds of the fields; the numbers are read from them, so none can disagree
        require_type("beta", self.beta, GammaVec)
        require_type("parts", self.parts, GammaPartition)
        if self.parts.n != self.beta.n:
            raise ValueError("parts rank context does not match beta")
        require_type("fiber_poincare", self.fiber_poincare, IntPolynomial)
        if not self.fiber_poincare.coeffs:
            raise ValueError("fiber_poincare must be nonzero")

    @property
    def m(self) -> int:
        return len(self.parts.parts)

    @property
    def stratum_dim(self) -> int:
        # 2|beta| + dim B + m, where dim B = n(n-1)/2 and beta has n - 1 coefficients
        r = len(self.beta.coeffs)
        return 2 * sum(self.beta.coeffs) + (r + 1) * r // 2 + len(self.parts.parts)

    @property
    def codim(self) -> int:
        # 2|sum of the parts| - m
        parts = self.parts.parts
        return 2 * sum([sum(part.coeffs) for part in parts]) - len(parts)

    @property
    def fiber_dim(self) -> int:
        # the polynomial is nonzero, so its degree is its length less one
        return len(self.fiber_poincare.coeffs) - 1


# the columns of a smallness table row, in order
_SMALLNESS_COLUMNS = ("beta", "parts", "codim", "fiber_dim", "margin", "ok")


def _smallness_row(rec: StratumRecord) -> tuple:
    """A record's values of _SMALLNESS_COLUMNS: margin is codim - 2 * fiber_dim
    where fiber_dim > 0 and None elsewhere, and ok says it is None or positive."""
    codim, f = rec.codim, rec.fiber_dim
    margin = codim - 2 * f if f else None
    return rec.beta, rec.parts, codim, f, margin, margin is None or margin > 0


@record
class SmallnessRow:
    """One stratum's row of the smallness inequality codim > 2 * fiber_dim.

    margin, codim - 2 * fiber_dim where fiber_dim > 0 and None elsewhere,
    and the verdict ok are read-only properties of the record (_smallness_row),
    so a failing row is stated by a record whose polynomial has too high a degree.
    """

    record: StratumRecord

    def __post_init__(self) -> None:
        require_type("record", self.record, StratumRecord)

    margin = property(lambda self: _smallness_row(self.record)[4])
    ok = property(lambda self: _smallness_row(self.record)[5])


@record
class SmallnessReport:
    """The smallness rows of (n, alpha), one per stratum, and the summaries read from them.

    min_margin is the least margin of a row and witness the record of the
    first row with it, both None on a vacuous report, where no row has one.
    passed says that row is ok, or that there is none, and vacuous that
    there is none. aggregate has one row (f, least codim of a row with
    fiber_dim f, ok) per occurring f > 0.
    """

    n: int
    alpha: GammaVec
    rows: tuple[SmallnessRow, ...]

    def __post_init__(self) -> None:
        require_int("rank parameter n", self.n, 2)
        require_type("alpha", self.alpha, GammaVec)
        if self.alpha.n != self.n:
            raise ValueError("alpha rank context does not match n")
        require_type("rows", self.rows, tuple)
        for row in self.rows:
            require_type("row", row, SmallnessRow)

    # each reads one pass of _summaries over the rows' records
    min_margin, witness, passed, vacuous, aggregate = (
        property(lambda self, i=i: _summaries([row.record for row in self.rows])[i]) for i in range(5)
    )


def _summaries(records) -> tuple:
    """(min_margin, witness, passed, vacuous, aggregate) of the records, in order, as SmallnessReport states them.

    One pass reads each record's _smallness_row once. The first record of least margin gives
    min_margin, witness and passed, and the record of least codim at fiber_dim f, whose margin
    is the least at f, gives aggregate's (f, codim, ok). Each summary is a function of the
    margins, codims and fiber_dims in order, so records that repeat an earlier record's three
    values may be left out.
    """
    # cutting the last simple coroot off a coroot of length >= 2 in a part's fewest-coroot
    # cover lowers codim by 2 and fiber_dim by 0 or 1, so over all strata of an alpha the
    # least codim at fiber_dim exactly f rises strictly with f: it is the least over
    # fiber_dim >= f
    lowest, witness, tight = {}, None, None
    for rec in records:
        _, _, codim, f, margin, _ = entry = _smallness_row(rec)
        if margin is not None:
            if tight is None or margin < tight[4]:
                witness, tight = rec, entry
            low = lowest.get(f)
            if low is None or codim < low[2]:
                lowest[f] = entry
    aggregate = tuple((f, low[2], low[5]) for f, low in sorted(lowest.items()))
    if tight is None:
        return None, None, True, True, aggregate
    return tight[4], witness, tight[5], False, aggregate


@record
class StalkEntry:
    degree: int
    twist: int
    multiplicity: int

    def __post_init__(self) -> None:
        require_int("degree", self.degree, None)
        require_int("twist", self.twist, 0)
        require_int("multiplicity", self.multiplicity, 1)


@record
class ICStalkTable:
    """IC stalk summands over one stratum, one entry per nonzero coefficient."""

    n: int
    alpha: GammaVec
    beta: GammaVec
    parts: GammaPartition
    entries: tuple[StalkEntry, ...]

    def __post_init__(self) -> None:
        # the kinds of the fields only: parity_check judges the degrees
        require_int("rank parameter n", self.n, 2)
        require_type("alpha", self.alpha, GammaVec)
        require_type("beta", self.beta, GammaVec)
        require_type("parts", self.parts, GammaPartition)
        if (self.alpha.n, self.beta.n, self.parts.n) != (self.n,) * 3:
            raise ValueError("rank contexts do not match n")
        require_type("entries", self.entries, tuple)
        for entry in self.entries:
            require_type("entry", entry, StalkEntry)


# records, rows, reports, stalk entries and tables are valid by construction; they are built
# by keyword, so that a reorder of the fields cannot put a value in the wrong slot
_record, _row, _report = StratumRecord._unchecked, SmallnessRow._unchecked, SmallnessReport._unchecked
_entry, _table = StalkEntry._unchecked, ICStalkTable._unchecked


# at least 566, the strata of the largest alpha in the benchmark's atlas pool, whose
# smallness_report reads the listing that its enumerate_strata kept; the command line lists
# through _rows, which neither reads nor keeps a listing
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


class _Products(dict):
    """K_v(t) * tail by the tail's coefficients, for one listing: each product is multiplied once."""

    __slots__ = ("k",)

    def __missing__(self, coeffs: tuple) -> IntPolynomial:
        product = self[coeffs] = self.k * _int_polynomial(coeffs=coeffs)
        return product


def _tree(n: int, alpha: GammaVec, caps: Caps) -> tuple:
    """The listing of (n, alpha) as a prefix tree, once the caps are checked and each K_v(t) read.

    Returns (vecs, kpolys, defects). vecs holds the box vectors v <= alpha
    and kpolys their K_v(t), by box index. defects yields (beta, segments)
    per nonzero defect d = alpha - beta, in increasing order: each segment
    (v, lo, hi) gives the next hi - lo strata of the listing, of defect d, as
    the strata at positions lo to hi - 1, of defect d - v, each with part v
    prepended and its fiber polynomial times K_v(t), which _products gives.
    Position 0 holds the open stratum: beta = alpha, no parts, polynomial 1.
    """
    _require_vector("alpha", alpha, caps, n)
    box, strides = _box(alpha.coeffs)
    vecs = [_gamma_vec(v) for v in box]
    kpolys = [ONE] * len(vecs)
    for i in range(len(vecs) - 1, 0, -1):
        kpolys[i] = kostant.kostant_poly(vecs[i], caps=caps)
    # alpha - defect sits at the index of alpha minus that of defect; the defects increase, so
    # beta decreases
    defects = ((vecs[-1 - d], segments) for d, segments in _defect_segments(box, strides))
    return vecs, kpolys, defects


def _products(kpolys: list) -> list:
    """Per box index v, the memo of K_v(t) * tail for one listing (one per distinct K_v(t)).

    It is None where K_v(t) = 1 leaves every tail as it is.
    """
    memos: dict = {}
    products = [None] * len(kpolys)
    for v, k in enumerate(kpolys):
        if k.coeffs != (1,):
            memo = products[v] = memos.get(k.coeffs)
            if memo is None:
                memo = products[v] = memos[k.coeffs] = _Products()
                memo.k = k
    return products


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
    of the kept records. Any other call lists along the prefix tree of
    _tree, which the command line writes its strata and smallness rows
    from without records: each stratum of defect d = alpha - beta is a
    stratum of defect d - v listed already, with part v prepended and K_v(t)
    times its fiber polynomial, each of the few distinct products
    multiplied once.
    """
    global _LAST
    vecs, kpolys, defects = _tree(n, alpha, caps)
    last = _LAST
    if last is not None and last[0] == alpha.coeffs and last[1] == kpolys:
        return list(last[2])
    products = _products(kpolys)
    out = [_record(beta=alpha, parts=_gamma_partition(n, ()), fiber_poincare=ONE)]
    for beta, segments in defects:
        for v, lo, hi in segments:
            memo, head = products[v], (vecs[v],)
            # a slice, not an iterator: out grows in this loop
            for tail in out[lo:hi]:
                poly = tail.fiber_poincare
                if memo is not None:
                    poly = memo[poly.coeffs]
                parts = _gamma_partition(n, head + tail.parts.parts)
                out.append(_record(beta=beta, parts=parts, fiber_poincare=poly))
    # a listing of more strata than the bound is not kept; the caller gets its own list
    if len(out) - 1 <= PARTITION_CACHE_SIZE:
        _LAST = (alpha.coeffs, kpolys, tuple(out))
    return out


def _rows(n: int, alpha: GammaVec, caps: Caps) -> tuple:
    """The listing of (n, alpha) for writing its rows, with no record per stratum: (vecs, keys, groups, spans, firsts).

    vecs holds the box vectors by box index. keys[i] is stratum i's parts as
    the string of their box indices' code points, head first, so that a
    stratum's key is chr(v) + its parent's, and groups[i] numbers its (m,
    fiber polynomial). Every number of a row is a function of its group and
    |beta|: stratum_dim = 2|beta| + dim B + m and codim = 2(|alpha| - |beta|)
    - m. So spans holds (lo, hi, beta) per defect in increasing order from
    the zero defect, its strata those at positions lo to hi - 1, and firsts
    holds (group, record) of the first stratum of each (|beta|, group), in
    listing order. The open stratum, of group 0, is the first of both.
    """
    vecs, kpolys, defects = _tree(n, alpha, caps)
    products = _products(kpolys)
    keys, groups, spans = [""], [0], [(0, 1, alpha)]
    firsts = [(0, _record(beta=alpha, parts=_gamma_partition(n, ()), fiber_poincare=ONE))]
    # group -> (m, fiber polynomial), and back by (m, coefficients)
    pairs, ids = [(0, ONE)], {(0, ONE.coeffs): 0}
    # per box index v: group -> the group of its strata with part v prepended
    steps = [{} for _ in vecs]
    # per |beta|: the groups that the defects of that |beta| listed so far hold
    held: dict = {}
    for beta, segments in defects:
        lo = len(keys)
        for v, tail_lo, tail_hi in segments:
            step, tails = steps[v], groups[tail_lo:tail_hi]
            for g in set(tails).difference(step):
                m, poly = pairs[g]
                if products[v] is not None:
                    poly = products[v][poly.coeffs]
                child = m + 1, poly.coeffs
                if child not in ids:
                    ids[child] = len(pairs)
                    pairs.append((m + 1, poly))
                step[g] = ids[child]
            groups.extend(map(step.__getitem__, tails))
            keys.extend(map(chr(v).__add__, keys[tail_lo:tail_hi]))
        hi = len(keys)
        spans.append((lo, hi, beta))
        # each group's first position, as the last that a walk from the end stores
        first = dict(zip(reversed(groups[lo:hi]), range(hi - 1, lo - 1, -1)))
        seen = held.setdefault(beta.length, set())
        for g in sorted(first.keys() - seen, key=first.__getitem__):
            seen.add(g)
            parts = _gamma_partition(n, tuple(map(vecs.__getitem__, map(ord, keys[first[g]]))))
            firsts.append((g, _record(beta=beta, parts=parts, fiber_poincare=pairs[g][1])))
    return vecs, keys, groups, spans, firsts


def smallness_report(n: int, alpha: GammaVec, *, caps: Caps = DEFAULT_CAPS) -> SmallnessReport:
    """Check codim > 2 * fiber_dim on every stratum of (n, alpha) with fiber_dim > 0.

    Each stratum gives a row of its record alone, which reads its margin
    codim - 2 * fiber_dim, or None where fiber_dim is 0, from the record. The
    report reads its summaries from the rows: the first tightest stratum and
    its margin, None on a vacuous report, and the aggregated form, min codim
    over strata with fiber_dim >= f above 2f for each f > 0, which follows
    (codim > 2 * fiber_dim >= 2f).

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
    rows = tuple(_row(record=rec) for rec in enumerate_strata(n, alpha, caps=caps))
    return _report(n=n, alpha=alpha, rows=rows)


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
