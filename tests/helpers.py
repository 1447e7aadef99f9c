"""Independent reference implementations used to cross-check the library.

Expected values in the tests are computed (or were frozen from) the
routines here, which deliberately share no algorithmic machinery with the
code under test: partition sets come from raw multiplicity search, counts
from dynamic programming, and lattices from linear algebra over truncated
modules. Agreement is therefore evidence, not tautology.
"""

import csv
import dataclasses
import io
import json
import pickle
from itertools import combinations, product

import pytest
from hypothesis import strategies as st

import quasiflags.gfpoly as gf
import quasiflags.oracle as oracle
from quasiflags.kostant import IntPolynomial
from quasiflags.oracle import Lattice, contains, enumerate_lattices
from quasiflags.partitions import GammaPartition, KappaPartition, NotInMError, mu_triangles, stratum_dim
from quasiflags.roots import GammaVec, Interval, interval_to_gamma, positive_coroots


def vectors_with_length_at_most(n, bound):
    """All degree vectors for SL(n) with |gamma| <= bound, lexicographic."""
    out = []
    for coeffs in product(range(bound + 1), repeat=n - 1):
        if sum(coeffs) <= bound:
            out.append(GammaVec(coeffs))
    return out


def small_alphas(max_rank=4, max_length=5):
    """Hypothesis strategy: degree vectors with n <= max_rank, |alpha| <= max_length."""
    return st.integers(2, max_rank).flatmap(
        lambda n: st.lists(st.integers(0, max_length), min_size=n - 1, max_size=n - 1)
    ).filter(lambda coeffs: sum(coeffs) <= max_length).map(lambda coeffs: GammaVec(tuple(coeffs)))


def brute_force_kappa_sets(n, gamma):
    """Coroot partitions of gamma by exhaustive multiplicity search.

    Tries every multiplicity vector bounded by the coefficients it has to
    fit under and keeps those summing to gamma; returns a set of frozensets
    {(p, q, mult), ...} so the comparison ignores ordering entirely.
    """
    coroots = positive_coroots(n)
    bounds = [min(gamma.coeffs[c.q - 1 : c.p]) for c in coroots]
    supports = [interval_to_gamma(c, n).coeffs for c in coroots]
    found = set()
    for mults in product(*(range(b + 1) for b in bounds)):
        total = [0] * (n - 1)
        for m, sup in zip(mults, supports):
            if m:
                for k, s in enumerate(sup):
                    total[k] += m * s
        if tuple(total) == gamma.coeffs:
            found.add(frozenset((c.p, c.q, m) for c, m in zip(coroots, mults) if m))
    return found


def kappa_partitions_reference(n, gamma):
    """brute_force_kappa_sets in kappa order, each as (p, q, mult) triples in (q, p) order.

    Kappa order is decreasing order of the multiplicity vectors over all
    coroots, absent ones as 0, read in (q, p) order.
    """
    order = [(c.p, c.q) for c in positive_coroots(n)]
    vectors = []
    for kappa in brute_force_kappa_sets(n, gamma):
        mult = {(p, q): m for p, q, m in kappa}
        vectors.append([mult.get(pq, 0) for pq in order])
    vectors.sort(reverse=True)
    return [tuple((p, q, m) for (p, q), m in zip(order, vector) if m) for vector in vectors]


def mu_triangles_reference(n, gamma):
    """Rows of the mu triangles of brute_force_kappa_sets, in kappa order.

    mu_pq is the defining sum of kappa_sr over s >= p and r <= q; kappa
    order is increasing order of the entries below the diagonal read column
    by column.
    """
    mus = []
    for kappa in brute_force_kappa_sets(n, gamma):
        mus.append(tuple(
            tuple(sum(m for s, r, m in kappa if s >= p and r <= q) for q in range(1, p + 1))
            for p in range(1, n)
        ))
    below = [(p, q) for q in range(1, n - 1) for p in range(q + 1, n)]
    return sorted(mus, key=lambda rows: [rows[p - 1][q - 1] for p, q in below])


def kostant_poly_brute(n, gamma):
    """K_gamma(t) tallied over brute_force_kappa_sets: t^(|gamma| - K(kappa)) per kappa."""
    counts = [0] * (gamma.length + 1)
    for kappa in brute_force_kappa_sets(n, gamma):
        counts[gamma.length - sum(m for _, _, m in kappa)] += 1
    return IntPolynomial(tuple(counts))


def fiber_coeffs_brute(n, parts):
    """Coefficients of prod_r K_{gamma_r}(t) over parts, each factor from kostant_poly_brute."""
    out = [1]
    for part in parts:
        factor = kostant_poly_brute(n, part).coeffs
        prod = [0] * (len(out) + len(factor) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(factor):
                prod[i + j] += a * b
        out = prod
    return out


def kostant_count(n, gamma):
    """Number of coroot partitions of gamma, by unbounded-knapsack DP."""
    cells = sorted(product(*(range(a + 1) for a in gamma.coeffs)))
    dp = {cell: 0 for cell in cells}
    dp[(0,) * (n - 1)] = 1
    for c in positive_coroots(n):
        sup = interval_to_gamma(c, n).coeffs
        for cell in cells:
            prev = tuple(a - b for a, b in zip(cell, sup))
            if all(x >= 0 for x in prev):
                dp[cell] += dp[prev]
    return dp[gamma.coeffs]


def integer_partition_count(m):
    """p(m) by the textbook coin DP."""
    dp = [1] + [0] * m
    for part in range(1, m + 1):
        for s in range(part, m + 1):
            dp[s] += dp[s - part]
    return dp[m]


def all_rref(rows, cols, q):
    """All full-rank reduced row echelon forms of shape rows x cols over F_q.

    One matrix per row space, hence one per codimension-`rows` subspace of
    F_q^cols when read as a kernel.
    """
    for pivots in combinations(range(cols), rows):
        free_positions = [
            (r, c)
            for r in range(rows)
            for c in range(cols)
            if c > pivots[r] and c not in pivots
        ]
        for values in product(range(q), repeat=len(free_positions)):
            mat = [[0] * cols for _ in range(rows)]
            for r, pc in enumerate(pivots):
                mat[r][pc] = 1
            for (r, c), v in zip(free_positions, values):
                mat[r][c] = v
            yield mat


def zstable_submodule_membersets(k, c, q):
    """Colength-c lattices of rank k found by pure linear algebra.

    A lattice of colength c contains z^c times the ambient module, so it is
    the same data as a z-stable F_q-subspace of codimension c in
    V = (F_q[z]/z^c)^k. Subspaces are enumerated as kernels of RREF
    matrices, filtered by z-stability, and returned as frozensets of member
    vectors (each member a tuple of k coefficient blocks of length c).
    Nothing here knows about canonical triangular bases.
    """
    if c == 0:
        return {frozenset({((),) * k})}
    dim = k * c

    def zmap(vec):
        out = []
        for b in range(k):
            block = vec[b * c : (b + 1) * c]
            out.extend((0,) + block[:-1])
        return tuple(out)

    found = set()
    for mat in all_rref(c, dim, q):
        members = frozenset(
            vec
            for vec in product(range(q), repeat=dim)
            if all(sum(a * x for a, x in zip(row, vec)) % q == 0 for row in mat)
        )
        if any(zmap(v) not in members for v in members):
            continue
        found.add(
            frozenset(
                tuple(vec[b * c : (b + 1) * c] for b in range(k)) for vec in members
            )
        )
    return found


def lattice_memberset(lat, c):
    """All members of the lattice modulo z^c, in the same block encoding."""
    k, q = lat.rank, lat.q
    if c == 0:
        return frozenset({((),) * k})
    members = set()
    for coeffs in product(product(range(q), repeat=c), repeat=k):
        acc = [[0] * c for _ in range(k)]
        for j, a in enumerate(coeffs):
            ap = gf.trim(a)
            if not ap:
                continue
            for i in range(k):
                entry = lat.cols[j][i]
                if entry:
                    for d, coeff in enumerate(gf.mul(ap, entry, q)[:c]):
                        acc[i][d] = (acc[i][d] + coeff) % q
        members.add(tuple(tuple(row) for row in acc))
    return frozenset(members)


def intersection_colength(lat, m, c):
    """Colength of L n R^m, counted from the members of L modulo z^c.

    For c >= colength(L) the members whose trailing rank - m blocks vanish
    are (L n R^m) / z^c R^m, a set of q^(m*c - colength) vectors.
    """
    kept = sum(1 for vec in lattice_memberset(lat, c) if not any(any(b) for b in vec[m:]))
    return m * c - next(e for e in range(m * c + 1) if lat.q**e == kept)


def vector_partition_count(alpha):
    """Number of multisets of nonzero vectors summing to alpha (a tuple).

    The unbounded-knapsack DP of integer_partition_count, run over the box
    below alpha: each nonzero box vector, taken in turn, may be used any
    number of times.
    """
    cells = list(product(*(range(a + 1) for a in alpha)))
    dp = dict.fromkeys(cells, 0)
    dp[(0,) * len(alpha)] = 1
    for part in cells:
        if not any(part):
            continue
        for cell in cells:
            prev = tuple(c - p for c, p in zip(cell, part))
            if min(prev) >= 0:
                dp[cell] += dp[prev]
    return dp[tuple(alpha)]


def min_codim_by_fiber_dim(alpha):
    """f -> least codim over the strata of alpha with fiber_dim exactly f > 0.

    A stratum (beta, Gamma) has codim 2|d| - m for the defect d = alpha - beta
    cut into m parts v, and fiber_dim the sum of deg K_v(t), which is |v|
    less the fewest positive coroots summing to v. Both come from DPs over
    the box: fewest coroots by subtracting one coroot, and the (m, fiber_dim)
    pairs of each defect by splitting off one part.
    """
    n = alpha.n
    cells = sorted(product(*(range(a + 1) for a in alpha.coeffs)))
    sups = [interval_to_gamma(c, n).coeffs for c in positive_coroots(n)]
    fewest = {}
    for cell in cells:
        prevs = (tuple(a - b for a, b in zip(cell, sup)) for sup in sups)
        fewest[cell] = min((fewest[prev] + 1 for prev in prevs if min(prev) >= 0), default=0)
    pairs = {}
    best = {}
    for d in cells:
        found = set() if any(d) else {(0, 0)}
        for v in product(*(range(x + 1) for x in d)):
            if any(v):
                rest = tuple(a - b for a, b in zip(d, v))
                found |= {(m + 1, f + sum(v) - fewest[v]) for m, f in pairs[rest]}
        pairs[d] = found
        for m, f in found:
            if f > 0:
                best[f] = min(best.get(f, 2 * sum(d) - m), 2 * sum(d) - m)
    return best


# Second routes to library results, kept here for cross-checking: they
# reuse library pieces, so they check consistency rather than give
# independent expected values.


def kostant_poly_via_strata(gamma):
    """K_gamma(t) recomputed from mu triangles: t^j counts strata of dimension j."""
    counts = {}
    for mu in mu_triangles(gamma):
        j = stratum_dim(mu)
        counts[j] = counts.get(j, 0) + 1
    return IntPolynomial(tuple(counts.get(j, 0) for j in range(max(counts) + 1)))


def mu_to_kappa_reference(mu, gamma):
    """mu_to_kappa entry by entry: nu_pq = mu_pq - mu_(p+1)q, kappa_pq = nu_pq - nu_p(q-1).

    Raises what mu_to_kappa raises, with the same message, for the first
    violation: diagonal entries first, then kappa row by row.
    """
    if mu.kind != "mu":
        raise ValueError(f'expected a "mu" triangle, got kind {mu.kind!r}')
    n = mu.n
    if gamma.n != n:
        raise ValueError("gamma rank context does not match the triangle")
    for q in range(1, n):
        if mu.entry(q, q) != gamma.coeff(q):
            raise NotInMError(
                f"mu_{{{q}{q}}} = {mu.entry(q, q)} differs from c_{q} = {gamma.coeff(q)}"
            )
    multiplicities = {}
    for p in range(1, n):
        prev_nu = 0
        for q in range(1, p + 1):
            nu_pq = mu.entry(p, q) - (mu.entry(p + 1, q) if p + 1 <= n - 1 else 0)
            k_pq = nu_pq - prev_nu
            prev_nu = nu_pq
            if k_pq < 0:
                raise NotInMError(f"derived kappa_{{{p}{q}}} = {k_pq} is negative")
            if k_pq:
                multiplicities[Interval(p, q)] = k_pq
    return KappaPartition.of(n, multiplicities)


def product_filtered_chains(n, gamma, q):
    """Flag chains as nested lattice tuples, by filtering the product of layers.

    Every lattice of rank k and colength c_k is tested against every
    partial chain, with no use of the leading-block structure.
    """
    partial = [()]
    for k in range(1, n):
        layer = enumerate_lattices(k, gamma.coeff(k), q)
        partial = [
            chain + (lat,) for chain in partial for lat in layer if not chain or contains(lat, chain[-1])
        ]
    return partial


def transformed(lat, matrix):
    """Image of the lattice under a constant invertible change of coordinates.

    matrix is a rank x rank array of F_q scalars acting on coordinates from
    the left; the image basis is recanonicalized. For chain-level use the
    matrix must preserve the coordinate flag, i.e. be upper triangular, so
    that its leading principal blocks act consistently on every rank.
    """
    k, q = lat.rank, lat.q
    gens = []
    for col in lat.cols:
        vec = []
        for i in range(k):
            acc = gf.ZERO
            for r in range(k):
                if matrix[i][r] % q:
                    acc = gf.add(acc, gf.scale(col[r], matrix[i][r], q), q)
            vec.append(acc)
        gens.append(tuple(vec))
    return Lattice.from_generators(k, q, gens)


def shift(a, d):
    """Multiply the F_q[z] polynomial a by z**d."""
    if not a:
        return gf.ZERO
    return (0,) * d + a


def valuation(a):
    """Order of vanishing of a at z = 0, None for the zero polynomial."""
    for i, c in enumerate(a):
        if c:
            return i
    return None


def is_canonical_by_rules(cols):
    """Whether a square basis of trimmed polynomials obeys the three canonical-form rules.

    Nothing below a pivot, every pivot a monic power z^d, and every entry
    above a pivot of lower degree than the pivot of its row.
    """
    for j, col in enumerate(cols):
        pivot = col[j]
        if any(col[j + 1 :]) or not pivot or pivot[-1] != 1 or any(pivot[:-1]):
            return False
        if any(len(col[i]) >= len(cols[i][i]) for i in range(j)):
            return False
    return True


def residues(d, q):
    """Every polynomial of degree < d over F_q, trimmed, in lexicographic coefficient order."""
    found = []
    for x in range(q**d):
        coeffs = [x // q ** (d - 1 - i) % q for i in range(d)]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        found.append(tuple(coeffs))
    return found


def extensions(lead, d, q):
    """Every canonical basis with leading block lead and last pivot z^d.

    Row i of the last column runs through the residues modulo the pivot of
    row i, the first row slowest.
    """
    grown = tuple(col + ((),) for col in lead)
    pools = [residues(len(col[j]) - 1, q) for j, col in enumerate(lead)]
    for above in product(*pools):
        yield grown + (above + ((0,) * d + (1,),),)


def lattice_columns_by_leads(rank, colength, q):
    """Canonical bases of every lattice, grown rank by rank from their leads, lazily.

    Grouped by the lead's colength, largest first, then the leads in this
    order one rank down: the order enumerate_lattices promises.
    """
    if rank == 0:
        if colength == 0:
            yield ()
        return
    for c in range(colength, -1, -1):
        for lead in lattice_columns_by_leads(rank - 1, c, q):
            yield from extensions(lead, colength - c, q)


def lead_tested_chains(n, gamma, q):
    """Flag chains as nested canonical bases, by testing leads for containment.

    L_k is an extension of a lead that contains L_(k-1); such a lead has
    colength at most min(c_(k-1), c_k), so every lead of that colength is
    tested against every partial chain.
    """
    profile = (0,) + gamma.coeffs
    partial = [()]
    for k in range(1, n):
        leads = [
            (lead, profile[k] - c)
            for c in range(min(profile[k - 1], profile[k]), -1, -1)
            for lead in lattice_columns_by_leads(k - 1, c, q)
        ]
        partial = [
            chain + (cols,)
            for chain in partial
            for lead, d in leads
            if not chain or oracle._contains(lead, chain[-1], q)
            for cols in extensions(lead, d, q)
        ]
    return partial


def assert_like_checked(value):
    """Assert that a value built unchecked behaves as its checked construction.

    The checked constructor must accept its fields and give a value that
    equals, hashes and prints the same; it must also survive replace and a
    pickle round trip, refuse assignment to every field, and carry no
    __dict__ beside its slots.
    """
    fields = [f.name for f in dataclasses.fields(value)]
    checked = type(value)(*(getattr(value, name) for name in fields))
    assert checked == value
    assert hash(checked) == hash(value)
    assert repr(checked) == repr(value)
    assert dataclasses.replace(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
    assert not hasattr(value, "__dict__")
    for name in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, getattr(value, name))


def _json_form(value):
    """The JSON form of the library values that strata and smallness print."""
    if type(value) is GammaPartition:
        return value.parts
    if type(value) in (GammaVec, IntPolynomial):
        return value.coeffs
    raise TypeError(f"no JSON form for {type(value).__name__}")


def reference_output(fmt, command, params, out):
    """A subcommand's whole output in fmt, built as one string from its cli Output.

    JSON through json.dumps(payload, indent=2); table and CSV cells through
    str(), with None as "-" and a bool as "yes" or "NO". The command line
    streams its rows and keeps each value's text, and must match this route
    byte for byte.
    """
    if fmt == "json":
        payload = {"command": command, "params": params, "result": out.result}
        return json.dumps(payload, indent=2, default=_json_form) + "\n"
    cells = [
        ["-" if c is None else ("yes" if c else "NO") if type(c) is bool else str(c) for c in row]
        for row in (r.values() if type(r) is dict else r for r in out.rows)
    ]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(out.headers)
        writer.writerows(cells)
        return buf.getvalue()
    lines = list(out.prefix)
    if out.aligned:
        widths = [max(map(len, column)) for column in zip(out.headers, *cells)]
        lines.append("  ".join(h.ljust(w) for h, w in zip(out.headers, widths)).rstrip())
        lines.append("  ".join("-" * w for w in widths))
        lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    return "".join(line + "\n" for line in lines)
