"""Command-line front end.

Eight subcommands expose the library over stdout in three formats (aligned
table, JSON, CSV). JSON payloads follow one schema: {"command": ...,
"params": ..., "result": ...} with degree vectors as integer arrays,
polynomials as coefficient arrays (index = exponent), degree-vector
partitions as lists of those, triangles as flat row-major lower-triangular
arrays [a11, a21, a22, a31, ...], and coroot partitions as [p, q, m] triples
(the table _SCHEMA). Output is a pure function of the arguments, byte for byte.

HANDLERS is the one subcommand table (handler, help text, degree-vector
flags). `main` builds the flags of the subcommand its argv names, parses them,
passes them to the handler, and renders its Output; params are n, the vectors,
then the handler's extras. A handler builds its rows once, as dicts from
column name to library value, and its result holds that list. `_render`
writes it a chunk of rows at a time and formats each value once per call.

Exit codes: 0 success (and verification PASS), 1 verification FAIL, 2 usage
error, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import NamedTuple

from .kostant import IntPolynomial, kostant_poly
from .limits import Caps, DEFAULT_CAPS, CapExceededError
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
from .strata import (
    ICStalkTable,
    StalkEntry,
    StratumRecord,
    enumerate_strata,
    ic_stalk_table,
    moduli_dim,
    parity_check,
    smallness_report,
)


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


# the JSON form of each library value: a sequence, which _write_json writes as a list
_SCHEMA = {
    GammaVec: attrgetter("coeffs"),
    IntPolynomial: attrgetter("coeffs"),
    # its parts, each a GammaVec
    GammaPartition: attrgetter("parts"),
    Triangle: Triangle.flat,
    KappaPartition: lambda kappa: [[c.p, c.q, m] for c, m in kappa.mult],
}


def stratum_records_from_json(payload: dict) -> list[StratumRecord]:
    """Rebuild the records of a `strata --format json` payload."""
    records = []
    for obj in payload["result"]["strata"]:
        beta = GammaVec(tuple(obj["beta"]))
        records.append(StratumRecord(
            beta=beta,
            parts=GammaPartition.of(beta.n, [GammaVec(tuple(p)) for p in obj["parts"]]),
            m=obj["m"],
            stratum_dim=obj["stratum_dim"],
            codim=obj["codim"],
            fiber_dim=obj["fiber_dim"],
            fiber_poincare=IntPolynomial(tuple(obj["fiber_poincare"])),
        ))
    return records


def ic_stalk_table_from_json(payload: dict) -> ICStalkTable:
    """Rebuild the table of an `ic-stalks --format json` payload."""
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


class Output(NamedTuple):
    """What a subcommand hands to the renderer; table and CSV cells are formatted in _render."""

    result: dict
    headers: tuple[str, ...]
    # the dicts the result holds, values in header order, or tuples for a table of its own shape
    rows: list
    # table format only: lines above the table, or the whole output when not aligned
    prefix: tuple[str, ...] = ()
    aligned: bool = True
    code: int = 0
    # params after n and the degree vectors, in flag order; read, never mutated
    params: dict = {}


# list items formatted and written at a time
_CHUNK = 256


def _write_json(obj, indent: str, write) -> None:
    """Write json.dumps(obj, indent=2), byte for byte, through write.

    Takes dicts, lists, str, int, bool and None, and a library value in
    _SCHEMA as the sequence it maps to. Types are matched exactly, so True
    stays true and any other type raises TypeError. The stdlib runs its
    pure-Python encoder whenever indent is set; this one keeps, for the call,
    the encoded keys and the text of each degree vector and polynomial, by
    indent and coefficients. Dicts go out key by key and longer lists _CHUNK
    items at a time.
    """
    memo, keys = {}, {}

    def text(obj, indent: str) -> str:
        kind = type(obj)
        if kind is int:
            return int.__repr__(obj)
        if kind is GammaVec or kind is IntPolynomial:
            key = indent, _SCHEMA[kind](obj)
            return memo.get(key) or memo.setdefault(key, text(list(key[1]), indent))
        if kind in _SCHEMA:
            return text(list(_SCHEMA[kind](obj)), indent)
        if kind is str:
            return encode_basestring_ascii(obj)
        if kind is bool or obj is None:
            return "null" if obj is None else "true" if obj else "false"
        inner = indent + "  "
        sep = ",\n" + inner
        if kind is list:
            body = [text(v, inner) for v in obj]
            return f"[\n{inner}{sep.join(body)}\n{indent}]" if obj else "[]"
        if kind is dict:
            body = [
                f"{keys.get(k) or keys.setdefault(k, encode_basestring_ascii(k))}: "
                f"{int.__repr__(v) if type(v) is int else text(v, inner)}"
                for k, v in obj.items()
            ]
            return f"{{\n{inner}{sep.join(body)}\n{indent}}}" if obj else "{}"
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")

    def stream(obj, indent: str) -> None:
        kind, inner = type(obj), indent + "  "
        if kind is dict and obj:
            for i, (k, v) in enumerate(obj.items()):
                write(("," if i else "{") + "\n" + inner + encode_basestring_ascii(k) + ": ")
                stream(v, inner)
            write(f"\n{indent}}}")
        elif kind is list and len(obj) > _CHUNK:
            sep = ",\n" + inner
            for start in range(0, len(obj), _CHUNK):
                chunk = sep.join([text(v, inner) for v in obj[start : start + _CHUNK]])
                write((sep if start else "[\n" + inner) + chunk)
            write(f"\n{indent}]")
        else:
            write(text(obj, indent))

    stream(obj, indent)


def _render(fmt: str, command: str, params: dict, out: Output, file) -> None:
    """Write the output in fmt to the text stream file, a chunk of rows at a time."""
    if fmt == "json":
        _write_json({"command": command, "params": params, "result": out.result}, "", file.write)
        file.write("\n")
        return
    # the one cell formatter: None as "-", a bool as "yes" or "NO", a partition from its parts'
    # text, anything else through str. Each text is kept for the call, by type and value; a
    # degree vector's and a polynomial's by type and coefficients, which hash faster.
    memo = {(type(None), None): "-", (bool, True): "yes", (bool, False): "NO"}

    def cell(value) -> str:
        kind = type(value)
        if kind is GammaPartition:
            return "+".join(map(cell, value.parts)) if value.parts else "-"
        key = kind, value.coeffs if kind is GammaVec or kind is IntPolynomial else value
        return memo.get(key) or memo.setdefault(key, str(value))

    rows = (map(cell, row.values() if type(row) is dict else row) for row in out.rows)
    if fmt == "csv":
        import csv

        writer = csv.writer(file, lineterminator="\n")
        writer.writerow(out.headers)
        writer.writerows(rows)
        return
    file.write("".join(line + "\n" for line in out.prefix))
    if out.aligned:
        # two passes: the column widths, then the lines
        cells = [tuple(out.headers), *map(tuple, rows)]
        widths = [max(map(len, column)) for column in zip(*cells)]
        cells.insert(1, tuple("-" * w for w in widths))
        line = "  ".join(f"%-{w}s" for w in widths)
        for start in range(0, len(cells), _CHUNK):
            chunk = cells[start : start + _CHUNK]
            file.write("".join((line % row).rstrip() + "\n" for row in chunk))


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


def _stratum(r: StratumRecord) -> dict:
    return {
        "beta": r.beta,
        "parts": r.parts,
        "m": r.m,
        "stratum_dim": r.stratum_dim,
        "codim": r.codim,
        "fiber_dim": r.fiber_dim,
        "fiber_poincare": r.fiber_poincare,
    }


def _cmd_strata(args, caps, n, alpha) -> Output:
    rows = [_stratum(r) for r in enumerate_strata(n, alpha, caps=caps)]
    result = {"moduli_dim": moduli_dim(n, alpha), "count": len(rows), "strata": rows}
    headers = ("beta", "parts", "m", "stratum_dim", "codim", "fiber_dim", "fiber_poincare")
    return Output(result, headers, rows)


def _cmd_smallness(args, caps, n, alpha) -> Output:
    report = smallness_report(n, alpha, caps=caps)
    rows = [
        {
            "beta": row.record.beta,
            "parts": row.record.parts,
            "codim": row.record.codim,
            "fiber_dim": row.record.fiber_dim,
            "margin": row.margin,
            "ok": row.ok,
        }
        for row in report.rows
    ]
    result = {
        "passed": report.passed,
        "vacuous": report.vacuous,
        "min_margin": report.min_margin,
        "witness": _stratum(report.witness) if report.witness else None,
        "rows": rows,
        "aggregate": [
            {"fiber_dim": f, "min_codim": c, "ok": ok} for f, c, ok in report.aggregate
        ],
    }
    outcome = "PASS" if report.passed else "FAIL"
    verdict = "PASS (vacuous)" if report.vacuous else f"{outcome} (min margin {report.min_margin})"
    headers = ("beta", "parts", "codim", "fiber_dim", "margin", "ok")
    return Output(result, headers, rows, prefix=(verdict,), code=0 if report.passed else 1)


def _cmd_ic_stalks(args, caps, n, alpha, beta) -> Output:
    parts = _parse_parts(args.parts, n)
    table = ic_stalk_table(n, alpha, beta, parts, caps=caps)
    parity_ok = parity_check(table)
    rows = [
        {"degree": e.degree, "twist": e.twist, "multiplicity": e.multiplicity}
        for e in table.entries
    ]
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
        rows = [
            {"mu": b.mu, "expected": b.expected, "actual": b.actual, "ok": b.ok}
            for b in report.buckets
        ]
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
    rows = [{"mu": mu, "count": c} for mu, c in count.buckets.items()]
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
    """All eight subcommands; only `command`, which main takes from argv, gets its flags."""
    parser = argparse.ArgumentParser(
        prog="quasiflags",
        description="Coroot partition combinatorics and finite-field fiber counting for SL(n).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in HANDLERS.items():
        sub.add_parser(name, help=help_text)
    if command not in HANDLERS:
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
    given = {f.name: v for f in fields(Caps) if (v := getattr(args, f.name)) is not None}
    caps = replace(DEFAULT_CAPS, **given)
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
