"""Command-line front end.

Eight subcommands expose the library over stdout in three formats (aligned
table, JSON, CSV). JSON payloads follow one schema: {"command": ...,
"params": ..., "result": ...} with degree vectors as integer arrays,
polynomials as coefficient arrays (index = exponent), degree-vector
partitions as lists of those, triangles as flat row-major lower-triangular
arrays [a11, a21, a22, a31, ...], and coroot partitions as [p, q, m] triples
(_SCHEMA holds the last two). Output is a pure function of the arguments,
byte for byte.

HANDLERS is the one subcommand table (handler, help text, degree-vector
flags). `main` builds the flags of the subcommand its argv names, parses them,
passes them to the handler, and renders its Output; params are n, the vectors,
then the handler's extras. A handler builds its rows once, as tuples of
library values in the order of its headers; where its JSON result lists
the rows as objects, it holds those same rows. Every command's output goes
one row path: each format's writer writes the rows, then the Output's tail,
if any, after them. The JSON writer writes each row through one % template
built from the headers, each field by the one writer of its indent, which
writes every kind of value. `_render` writes the rows a chunk at a time and
formats each value once per call.

`strata` and `smallness` build no row, record or partition per stratum. Their
one row is the open stratum's, and their tail the rest of the listing's
prefix tree, strata._rows, in which each stratum is a part v prepended to a
stratum listed before it. Every value of a tail row but beta and the
partition is a function of |beta| and the stratum's group, (m, fiber
polynomial), so each format puts the values of a group at a |beta| once into
a row template, reading them as `_stratum` or `strata._smallness_row` gives
them from the group's first record there, with %s for beta and the
partition. A tail row is its template filled with the text of its defect's
beta and of its partition, which one translate reads off the stratum's key,
its parts' box indices as code points. `smallness` reads its summaries through
`strata._summaries` of those first records, as SmallnessReport reads them of
every record, with no arithmetic of its own.

Exit codes: 0 success (and verification PASS), 1 verification FAIL, 2 usage
error, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain, islice, repeat, starmap
from operator import attrgetter, itemgetter, mod

from .kostant import IntPolynomial, kostant_poly
from .limits import Caps, CapExceededError, record
from .partitions import (
    GammaPartition,
    KappaPartition,
    Triangle,
    gamma_partitions,
    kappa_partitions,
    mu_triangles,
    stratum_dim,
)
from .roots import GammaVec, interval_to_gamma, positive_coroots


# ---------------------------------------------------------------------------
# parsing helpers


def _parse_vector(text: str, n: int, name: str) -> GammaVec:
    pieces = text.split(",")
    if len(pieces) != n - 1:
        raise ValueError(
            f"--{name} needs {n - 1} comma-separated entries for --n {n}, got {text!r}"
        )
    try:
        values = tuple(int(x) for x in pieces)
    except ValueError:
        raise ValueError(f"--{name} entries must be integers, got {text!r}") from None
    if any(v < 0 for v in values):
        raise ValueError(f"--{name} entries must be nonnegative, got {text!r}")
    return GammaVec(values)


def _parse_parts(text: str, n: int) -> GammaPartition:
    chunks = [chunk for chunk in text.split(";") if chunk.strip()] if text else []
    parts = [_parse_vector(chunk.strip(), n, "parts") for chunk in chunks]
    for part in parts:
        if part.is_zero():
            raise ValueError("--parts entries must be nonzero vectors")
    return GammaPartition.of(n, parts)


def _cap(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        # argparse's own wording for a bad type=int value
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integers: {text!r}") from None
    if any(v < 0 for v in values):
        raise argparse.ArgumentTypeError(f"entries must be nonnegative, got {text!r}")
    return values


# ---------------------------------------------------------------------------
# JSON serialization (the schema other tools consume)


# the JSON form of each library value other than a degree vector, a polynomial or a partition:
# a sequence, which _write_json writes as a list
_SCHEMA = {
    Triangle: Triangle.flat,
    KappaPartition: lambda kappa: [[c.p, c.q, m] for c, m in kappa.mult],
}


def stratum_records_from_json(payload: dict) -> list:
    """Rebuild the records (StratumRecord) of a `strata --format json` payload.

    Each record goes through the checked constructor, which refuses fields
    of the wrong kind with TypeError or ValueError. The payload's m,
    stratum_dim, codim and fiber_dim must be the ints that the record reads
    from beta, the parts and the fiber polynomial; any other is refused
    with ValueError.
    """
    from .strata import StratumRecord

    records = []
    for obj in payload["result"]["strata"]:
        beta = GammaVec(tuple(obj["beta"]))
        rec = StratumRecord(
            beta=beta,
            parts=GammaPartition.of(beta.n, [GammaVec(tuple(p)) for p in obj["parts"]]),
            fiber_poincare=IntPolynomial(tuple(obj["fiber_poincare"])),
        )
        for name in ("m", "stratum_dim", "codim", "fiber_dim"):
            # an exact type test, as True == 1 and 1.0 == 1
            value, given = getattr(rec, name), obj[name]
            if type(given) is not int or given != value:
                raise ValueError(f"{name} must be {value} on this stratum, got {given!r}")
        records.append(rec)
    return records


def ic_stalk_table_from_json(payload: dict):
    """Rebuild the ICStalkTable of an `ic-stalks --format json` payload."""
    from .strata import ICStalkTable, StalkEntry

    params = payload["params"]
    n = params["n"]
    alpha = GammaVec(tuple(params["alpha"]))
    beta = GammaVec(tuple(params["beta"]))
    parts = GammaPartition.of(n, [GammaVec(tuple(p)) for p in params["parts"]])
    entries = tuple(
        StalkEntry(degree=e["degree"], twist=e["twist"], multiplicity=e["multiplicity"])
        for e in payload["result"]["entries"]
    )
    return ICStalkTable(n=n, alpha=alpha, beta=beta, parts=parts, entries=entries)


# ---------------------------------------------------------------------------
# output


@record
class Output:
    """What a subcommand hands to the renderer; table and CSV cells are formatted in _render."""

    result: dict
    headers: tuple[str, ...]
    # tuples of library values in header order; where result lists the rows as objects from
    # header to value, it holds this same list, which the JSON writer writes through headers and
    # follows with the tail's rows, as every writer does
    rows: list
    # table format only: lines above the table, or the whole output when not aligned
    prefix: tuple[str, ...] = ()
    aligned: bool = True
    code: int = 0
    # params after n and the degree vectors, in flag order; read, never mutated
    params: dict = {}
    # the rest of a strata listing after the rows, (row_of, *strata._rows), row_of giving a row
    # of a record; () for none (see _listing_texts)
    tail: tuple = ()


# list items formatted and written at a time
_CHUNK = 256


def _chunks(items):
    """The lists of _CHUNK items, and the last of fewer, that the iterator items yields in turn."""
    while chunk := list(islice(items, _CHUNK)):
        yield chunk


def _partition_texts(vecs: list, keys: list, part_text, sep: str):
    """The texts of a strata listing's partitions after the open stratum's, in listing order.

    vecs and keys are those of strata._rows. A partition's text is each
    part's part_text(vec) after sep, all read off the stratum's key in one
    translate, then the first character cut.
    """
    table = [sep + part_text(vec) for vec in vecs]
    return map(itemgetter(slice(1, None)), map(str.translate, islice(keys, 1, None), repeat(table)))


def _listing_texts(tail: tuple, template, beta_text, part_text, sep: str):
    """The texts of an Output's tail rows, the strata after the open stratum's, in listing order.

    A row's values but beta and the partition are a function of its group
    and |beta|, so its text is the template of its group at its |beta|,
    template(values) of the values that row_of gives of the group's first
    record there, filled with the text of the defect's beta, beta_text(beta),
    and of its partition, as _partition_texts gives it of part_text and sep.
    """
    row_of, vecs, keys, groups, spans, firsts = tail
    # per |beta|: group -> its template
    templates: dict = {}
    for g, rec in firsts:
        templates.setdefault(rec.beta.length, {})[g] = template(row_of(rec))
    texts = _partition_texts(vecs, keys, part_text, sep)

    def defect(lo, hi, beta):
        filled = zip(repeat(beta_text(beta)), islice(texts, hi - lo))
        return map(mod, map(templates[beta.length].__getitem__, groups[lo:hi]), filled)

    return chain.from_iterable(starmap(defect, spans[1:]))


def _write_json(obj, indent: str, write, out=None) -> None:
    """Write json.dumps(obj, indent=2), byte for byte, through write.

    Takes dicts, lists, str, int, bool and None, a degree vector or
    polynomial as its coefficients, a partition as its parts, and a library
    value in _SCHEMA as the sequence it maps to. Types are matched exactly,
    so True stays true and any other type raises TypeError. The one
    exception is the Output out's rows, where obj holds them within dicts:
    each row, a tuple of values in the order of the headers, goes out as the
    object from header to value, through one % template per call and indent
    built from the headers, and the rows of out's tail follow them in that
    list. The stdlib runs its pure-Python encoder whenever indent is set;
    here one writer per indent, value_text, made once per call, writes every
    kind, and the call keeps the encoded keys and, per indent, the text of
    each degree vector and polynomial by coefficients. Dicts go out key by
    key and the rows, and any other list longer than _CHUNK, _CHUNK items at
    a time.
    """
    from json.encoder import encode_basestring_ascii

    # indent -> {coefficients: text} of the degree vectors and polynomials written at indent;
    # key -> its text; indent -> its value_text
    kept, keys, writers = {}, {}, {}
    rows = out and out.rows

    def key(k: str) -> str:
        return keys.get(k) or keys.setdefault(k, encode_basestring_ascii(k))

    def value_text(indent: str):
        """The writer of a value's text at indent, made once per indent."""
        writer = writers.get(indent)
        if writer is not None:
            return writer
        inner = indent + "  "
        texts, part_texts = kept.setdefault(indent, {}), kept.setdefault(inner, {})
        opening, sep, closing = "[\n" + inner, ",\n" + inner, "\n" + indent + "]"

        def items(values) -> str:
            return opening + sep.join(map(value_text(inner), values)) + closing if values else "[]"

        def writer(v) -> str:
            kind = type(v)
            if kind is int:
                return int.__repr__(v)
            if kind is GammaVec or kind is IntPolynomial:
                coeffs = v.coeffs
                return texts.get(coeffs) or texts.setdefault(coeffs, items(coeffs))
            if kind is GammaPartition:
                # the parts' kept texts read inline, as a call per part costs the rows
                body = [part_texts.get(p.coeffs) or value_text(inner)(p) for p in v.parts]
                return opening + sep.join(body) + closing if body else "[]"
            if kind in _SCHEMA:
                return items(_SCHEMA[kind](v))
            if kind is str:
                return encode_basestring_ascii(v)
            if kind is bool or v is None:
                return "null" if v is None else "true" if v else "false"
            if kind is list:
                return items(v)
            if kind is dict:
                field = value_text(inner)
                body = [f"{key(k)}: {field(x)}" for k, x in v.items()]
                return "{\n" + inner + sep.join(body) + "\n" + indent + "}" if body else "{}"
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")

        return writers.setdefault(indent, writer)

    def row_texts(indent: str):
        """The texts of the rows, then the tail's, as objects at indent, each field's text put into one template."""
        at = indent + "  "
        fields = [key(h).replace("%", "%%") + ": %s" for h in out.headers]
        template = "{\n" + at + (",\n" + at).join(fields) + "\n" + indent + "}"
        field = value_text(at)
        heads = (template % tuple(map(field, row)) for row in rows)
        if not out.tail:
            return heads

        def group(values):
            # the partition's text is its parts' texts at the next indent, each after sep
            return template % ("%s", "[%s\n" + at + "]", *(field(x).replace("%", "%%") for x in values[2:]))

        inner = at + "  "
        return chain(heads, _listing_texts(out.tail, group, field, value_text(inner), ",\n" + inner))

    def stream(obj, indent: str) -> None:
        kind, inner = type(obj), indent + "  "
        if kind is dict and obj:
            for i, (k, v) in enumerate(obj.items()):
                write(("," if i else "{") + "\n" + inner + key(k) + ": ")
                stream(v, inner)
            write(f"\n{indent}}}")
        elif (obj is rows and obj) or (kind is list and len(obj) > _CHUNK):
            items = row_texts(inner) if obj is rows else map(value_text(inner), obj)
            sep = ",\n" + inner
            for i, chunk in enumerate(_chunks(items)):
                write((sep if i else "[\n" + inner) + sep.join(chunk))
            write(f"\n{indent}]")
        else:
            write(value_text(indent)(obj))

    stream(obj, indent)


def _render(fmt: str, command: str, params: dict, out: Output, file) -> None:
    """Write the output in fmt to the text stream file, a chunk of rows at a time."""
    if fmt == "json":
        payload = {"command": command, "params": params, "result": out.result}
        _write_json(payload, "", file.write, out)
        file.write("\n")
        return
    # the one cell formatter: None as "-", a bool as "yes" or "NO", a partition from its parts'
    # text, anything else through str. Each text is kept for the call, so that equal cells of
    # a table share one string: an int's by value, a degree vector's and a polynomial's by
    # coefficients, which hash faster, any other by type and value.
    memo = {(type(None), None): "-", (bool, True): "yes", (bool, False): "NO"}
    ints, vecs, polys = {}, {}, {}

    def cell(value) -> str:
        kind = type(value)
        if kind is int:
            return ints.get(value) or ints.setdefault(value, int.__repr__(value))
        if kind is GammaPartition:
            parts = value.parts
            return "+".join([vecs.get(p.coeffs) or vecs.setdefault(p.coeffs, str(p)) for p in parts]) if parts else "-"
        if kind is GammaVec or kind is IntPolynomial:
            texts, coeffs = vecs if kind is GammaVec else polys, value.coeffs
            return texts.get(coeffs) or texts.setdefault(coeffs, str(value))
        key = kind, value
        return memo.get(key) or memo.setdefault(key, str(value))

    rows, tail, heads = (map(cell, row) for row in out.rows), out.tail, ()
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")

        def line(cells) -> str:
            buf.seek(0)
            buf.truncate()
            writer.writerow(cells)
            return buf.getvalue()

        heads = map(line, chain([out.headers], rows))
        if tail:
            # a partition's text is quoted as the csv module quotes alpha's: its parts' texts,
            # like alpha's, hold a comma exactly where n > 2
            sample = str(tail[1][-1])
            parts = line([sample])[:-1].replace(sample, "%s")

        def group(values):
            return "%s," + parts + "," + line([cell(x).replace("%", "%%") for x in values[2:]])

        def beta_text(beta):
            return line([cell(beta)])[:-1]

    else:
        file.write("".join(line + "\n" for line in out.prefix))
        if out.aligned:
            # two passes: the column widths, then the lines; the tail adds the widths of each
            # defect's beta, each partition's text and each group's other cells
            cells = [tuple(out.headers), *map(tuple, rows)]
            columns = zip(*cells)
            if tail:
                row_of, box, keys, _, spans, firsts = tail
                columns = map(chain, columns, [
                    [cell(beta) for _, _, beta in spans],
                    _partition_texts(box, keys, str, "+"),
                    *zip(*(map(cell, row_of(rec)[2:]) for _, rec in firsts)),
                ])
            widths = [max(map(len, column)) for column in columns]
            cells.insert(1, tuple("-" * w for w in widths))
            line = "  ".join(f"%-{w}s" for w in widths)
            heads = ((line % row).rstrip() + "\n" for row in cells)

        def group(values):
            padded = [cell(x).ljust(w).replace("%", "%%") for x, w in zip(values[2:], widths[2:])]
            return "  ".join([f"%-{widths[0]}s", f"%-{widths[1]}s", *padded]).rstrip() + "\n"

        beta_text = cell
    texts = _listing_texts(tail, group, beta_text, str, "+") if tail else ()
    for chunk in _chunks(chain(heads, texts)):
        file.write("".join(chunk))


# ---------------------------------------------------------------------------
# subcommands: each takes (args, caps, n, *its degree vectors) and returns an Output


def _cmd_roots(args, caps, n) -> Output:
    coroots = positive_coroots(n, caps=caps)
    expansions = [interval_to_gamma(c, n) for c in coroots]
    result = {
        "coroots": [{"p": c.p, "q": c.q, "gamma": g} for c, g in zip(coroots, expansions)]
    }
    rows = [(c, c.p, c.q, g) for c, g in zip(coroots, expansions)]
    return Output(result, ("coroot", "p", "q", "gamma"), rows)


def _cmd_kpartitions(args, caps, n, gamma) -> Output:
    kappas = kappa_partitions(gamma, caps=caps)
    mus = mu_triangles(gamma, caps=caps)
    rows = [(k, k.num_parts, mu, stratum_dim(mu)) for k, mu in zip(kappas, mus)]
    result = {
        "count": len(kappas),
        "partitions": [
            {"kappa": k, "num_parts": num_parts, "mu": mu, "stratum_dim": dim}
            for k, num_parts, mu, dim in rows
        ],
    }
    return Output(result, ("partition", "num_parts", "mu", "stratum_dim"), rows)


def _cmd_kostant(args, caps, n, gamma) -> Output:
    poly = kostant_poly(gamma, caps=caps)
    result = {"coefficients": poly, "text": str(poly)}
    rows = list(enumerate(poly.coeffs))
    return Output(result, ("exponent", "coefficient"), rows, prefix=(str(poly),), aligned=False)


def _cmd_gamma_partitions(args, caps, n, alpha) -> Output:
    partitions = gamma_partitions(alpha, caps=caps)
    result = {"count": len(partitions), "partitions": partitions}
    return Output(result, ("partition", "num_parts"), [(p, p.m) for p in partitions])


# the columns of a strata row, each a StratumRecord field or property of that name
_STRATA_HEADERS = ("beta", "parts", "m", "stratum_dim", "codim", "fiber_dim", "fiber_poincare")
# the row of a StratumRecord: the tuple of its values of those columns
_stratum = attrgetter(*_STRATA_HEADERS)


def _cmd_strata(args, caps, n, alpha) -> Output:
    from .strata import _rows, moduli_dim

    _, keys, _, _, firsts = listing = _rows(n, alpha, caps)
    # the open stratum's row, the first record's; the tail holds the rest
    rows = [_stratum(firsts[0][1])]
    result = {"moduli_dim": moduli_dim(n, alpha), "count": len(keys), "strata": rows}
    return Output(result, _STRATA_HEADERS, rows, tail=(_stratum, *listing))


def _cmd_smallness(args, caps, n, alpha) -> Output:
    from .strata import _SMALLNESS_COLUMNS, _rows, _smallness_row, _summaries

    *_, firsts = listing = _rows(n, alpha, caps)
    # each group's first record at a |beta| stands for the group's rows there, whose margins,
    # codims and fiber_dims are its own; the open stratum's, the first, gives the one row
    records = [rec for _, rec in firsts]
    min_margin, witness, passed, vacuous, aggregate = _summaries(records)
    rows = [_smallness_row(records[0])]
    result = {
        "passed": passed,
        "vacuous": vacuous,
        "min_margin": min_margin,
        "witness": dict(zip(_STRATA_HEADERS, _stratum(witness))) if witness else None,
        "rows": rows,
        "aggregate": [
            {"fiber_dim": f, "min_codim": c, "ok": ok} for f, c, ok in aggregate
        ],
    }
    outcome = "PASS" if passed else "FAIL"
    verdict = "PASS (vacuous)" if vacuous else f"{outcome} (min margin {min_margin})"
    return Output(
        result, _SMALLNESS_COLUMNS, rows, prefix=(verdict,), code=0 if passed else 1,
        tail=(_smallness_row, *listing),
    )


def _cmd_ic_stalks(args, caps, n, alpha, beta) -> Output:
    from .strata import ic_stalk_table, parity_check

    parts = _parse_parts(args.parts, n)
    table = ic_stalk_table(n, alpha, beta, parts, caps=caps)
    parity_ok = parity_check(table)
    rows = [(e.degree, e.twist, e.multiplicity) for e in table.entries]
    return Output(
        {"entries": rows, "parity_ok": parity_ok}, ("degree", "twist", "multiplicity"), rows,
        prefix=(f"parity {'ok' if parity_ok else 'VIOLATED'}",), code=0 if parity_ok else 1,
        params={"parts": parts},
    )


def _cmd_fiber_count(args, caps, n, gamma) -> Output:
    from .oracle import fiber_point_count, verify_against_kostant

    params = {"q": args.q, "verify": args.verify}
    if args.verify:
        report = verify_against_kostant(n, gamma, args.q, caps=caps)
        verdict = "PASS" if report.passed else "FAIL"
        rows = [(b.mu, b.expected, b.actual, b.ok) for b in report.buckets]
        result = {
            "total": report.total_actual,
            "verify": {
                "passed": report.passed,
                "total_expected": report.total_expected,
                "missing_mu": list(report.missing_mu),
                "unexpected_mu": list(report.unexpected_mu),
                "buckets": rows,
            },
        }
        return Output(
            result, ("mu", "expected", "actual", "ok"), rows,
            prefix=(f"{verdict}, total {report.total_actual}",),
            code=0 if report.passed else 1, params=params,
        )
    count = fiber_point_count(n, gamma, args.q, caps=caps)
    rows = list(count.buckets.items())
    result = {"total": count.total, "buckets": rows}
    return Output(result, ("mu", "count"), rows, prefix=(f"total {count.total}",), params=params)


# name -> (handler, help text, degree-vector flags in parameter order)
HANDLERS = {
    "roots": (_cmd_roots, "list the positive coroots", ()),
    "kpartitions": (_cmd_kpartitions, "partitions of gamma into coroots", ("gamma",)),
    "kostant": (_cmd_kostant, "the q-analogue polynomial K_gamma(t)", ("gamma",)),
    "gamma-partitions": (_cmd_gamma_partitions, "multiset partitions of a degree vector", ("alpha",)),
    "strata": (_cmd_strata, "the stratification atlas for (n, alpha)", ("alpha",)),
    "smallness": (_cmd_smallness, "verify codim > 2*fiber_dim per stratum", ("alpha",)),
    "ic-stalks": (_cmd_ic_stalks, "IC stalk table over one stratum", ("alpha", "beta")),
    "fiber-count": (_cmd_fiber_count, "chain count over F_q, summed by cells", ("gamma",)),
}

_METAVARS = {"alpha": "a1,a2,..", "beta": "b1,b2,..", "gamma": "c1,c2,.."}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of `command`, which main takes from argv: its subparser alone, with its flags.

    A command not in HANDLERS gets all eight subparsers, without flags, for
    the help text and the invalid-choice error.
    """
    parser = argparse.ArgumentParser(
        prog="quasiflags",
        description="Coroot partition combinatorics and finite-field fiber counting for SL(n).",
    )
    alone = command in HANDLERS
    # built alone, a subcommand keeps all eight names in the usage line of a parse error through
    # the metavar; unset, the errors of the full parser name the positional "command"
    metavar = "{" + ",".join(HANDLERS) + "}" if alone else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in (command,) if alone else HANDLERS:
        sub.add_parser(name, help=HANDLERS[name][1])
    if not alone:
        return parser
    p = sub.choices[command]
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    # each cap flag stores into the Caps field of its dest
    p.add_argument("--cap-rank", dest="max_rank", type=_cap, metavar="N")
    p.add_argument("--cap-length", dest="max_length", type=_cap, metavar="L")
    p.add_argument("--cap-oracle-rank", dest="oracle_max_rank", type=_cap, metavar="N")
    p.add_argument("--cap-oracle-length", dest="oracle_max_length", type=_cap, metavar="L")
    p.add_argument("--cap-oracle-primes", dest="oracle_primes", type=_int_list, metavar="Q,Q")
    p.add_argument("--cap-lattice-volume", dest="max_lattice_volume", type=_cap, metavar="V")
    p.add_argument("--n", type=int, required=True)
    for flag in HANDLERS[command][2]:
        p.add_argument(f"--{flag}", required=True, metavar=_METAVARS[flag])
    if command == "ic-stalks":
        p.add_argument("--parts", default="", metavar='"g;g;.."')
    if command == "fiber-count":
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--verify", action="store_true")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # each cap flag's dest is its Caps field
    caps = Caps(**{name: v for name in Caps.__match_args__ if (v := getattr(args, name)) is not None})
    handler, _, flags = HANDLERS[args.command]
    try:
        if args.n < 2:
            raise ValueError(f"--n must be at least 2, got {args.n}")
        vectors = [_parse_vector(getattr(args, flag), args.n, flag) for flag in flags]
        out = handler(args, caps, args.n, *vectors)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    params = {"n": args.n, **dict(zip(flags, vectors)), **out.params}
    try:
        _render(args.format, args.command, params, out, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; send what is left, and the flush at exit, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return out.code
