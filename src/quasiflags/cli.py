"""Command-line front end.

Eight subcommands expose the library over stdout in three formats (aligned
table, JSON, CSV). JSON payloads follow one schema: {"command": ...,
"params": ..., "result": ...} with degree vectors as integer arrays,
polynomials as coefficient arrays (index = exponent), and triangles as flat
row-major lower-triangular arrays [a11, a21, a22, a31, ...]. Output is a
pure function of the arguments, byte for byte.

HANDLERS is the one subcommand table (handler, help text, degree-vector
flags). `main` parses --n and those flags once, passes them to the handler,
and renders its Output; params are n, the vectors, then the handler's extras.

Exit codes: 0 success (and verification PASS), 1 verification FAIL, 2 usage
error, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import fields, replace
from typing import NamedTuple

from .kostant import IntPolynomial, kostant_poly
from .limits import Caps, DEFAULT_CAPS, CapExceededError
from .partitions import (
    GammaPartition,
    gamma_partitions,
    kappa_partitions,
    kappa_to_nu,
    nu_to_mu,
    stratum_dim,
)
from .oracle import fiber_point_count, verify_against_kostant
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


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integers: {text!r}") from None


# ---------------------------------------------------------------------------
# JSON serialization (the schema other tools consume)


def _parts_json(parts: GammaPartition) -> list[list[int]]:
    return [list(p.coeffs) for p in parts.parts]


def _record_json(rec: StratumRecord) -> dict:
    return {
        "beta": list(rec.beta.coeffs),
        "parts": _parts_json(rec.parts),
        "m": rec.m,
        "stratum_dim": rec.stratum_dim,
        "codim": rec.codim,
        "fiber_dim": rec.fiber_dim,
        "fiber_poincare": list(rec.fiber_poincare.coeffs),
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
    """What a subcommand hands to the renderer; table and CSV cells go through str."""

    result: dict
    headers: tuple[str, ...]
    rows: list
    # table format only: lines above the table, or the whole output when not aligned
    prefix: tuple[str, ...] = ()
    aligned: bool = True
    code: int = 0
    # params after n and the degree vectors, in flag order; read, never mutated
    params: dict = {}


def _render_table(headers, rows) -> str:
    cells = [[str(c) for c in row] for row in rows]
    widths = [max(map(len, column)) for column in zip(headers, *cells)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _render(fmt: str, command: str, params: dict, out: Output) -> str:
    if fmt == "json":
        return json.dumps({"command": command, "params": params, "result": out.result}, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(out.headers)
        writer.writerows([str(c) for c in row] for row in out.rows)
        return buf.getvalue()
    table = (_render_table(out.headers, out.rows),) if out.aligned else ()
    return "".join(line + "\n" for line in (*out.prefix, *table))


def _emit(text: str) -> None:
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; send what is left, and the flush at exit, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# ---------------------------------------------------------------------------
# subcommands: each takes (args, caps, n, *its degree vectors) and returns an Output


def _cmd_roots(args, caps, n) -> Output:
    coroots = positive_coroots(n, caps=caps)
    expansions = [interval_to_gamma(c, n) for c in coroots]
    result = {
        "coroots": [
            {"p": c.p, "q": c.q, "gamma": list(g.coeffs)}
            for c, g in zip(coroots, expansions)
        ]
    }
    rows = [(c, c.p, c.q, g) for c, g in zip(coroots, expansions)]
    return Output(result, ("coroot", "p", "q", "gamma"), rows)


def _cmd_kpartitions(args, caps, n, gamma) -> Output:
    kappas = kappa_partitions(gamma, caps=caps)
    mus = [nu_to_mu(kappa_to_nu(k)) for k in kappas]
    rows = [(k, k.num_parts, mu, stratum_dim(mu)) for k, mu in zip(kappas, mus)]
    result = {
        "count": len(kappas),
        "partitions": [
            {
                "kappa": [[c.p, c.q, m] for c, m in k.mult],
                "num_parts": num_parts,
                "mu": mu.flat(),
                "stratum_dim": dim,
            }
            for k, num_parts, mu, dim in rows
        ],
    }
    return Output(result, ("partition", "num_parts", "mu", "stratum_dim"), rows)


def _cmd_kostant(args, caps, n, gamma) -> Output:
    poly = kostant_poly(gamma, caps=caps)
    result = {"coefficients": list(poly.coeffs), "text": str(poly)}
    rows = list(enumerate(poly.coeffs))
    return Output(result, ("exponent", "coefficient"), rows, prefix=(str(poly),), aligned=False)


def _cmd_gamma_partitions(args, caps, n, alpha) -> Output:
    partitions = gamma_partitions(alpha, caps=caps)
    result = {
        "count": len(partitions),
        "partitions": [_parts_json(p) for p in partitions],
    }
    return Output(result, ("partition", "num_parts"), [(p, p.m) for p in partitions])


def _cmd_strata(args, caps, n, alpha) -> Output:
    records = enumerate_strata(n, alpha, caps=caps)
    result = {
        "moduli_dim": moduli_dim(n, alpha),
        "count": len(records),
        "strata": [_record_json(r) for r in records],
    }
    headers = ("beta", "parts", "m", "stratum_dim", "codim", "fiber_dim", "fiber_poincare")
    rows = [
        (r.beta, r.parts, r.m, r.stratum_dim, r.codim, r.fiber_dim, r.fiber_poincare)
        for r in records
    ]
    return Output(result, headers, rows)


def _cmd_smallness(args, caps, n, alpha) -> Output:
    report = smallness_report(n, alpha, caps=caps)
    result = {
        "passed": report.passed,
        "vacuous": report.vacuous,
        "min_margin": report.min_margin,
        "witness": _record_json(report.witness) if report.witness else None,
        "rows": [
            {
                "beta": list(row.record.beta.coeffs),
                "parts": _parts_json(row.record.parts),
                "codim": row.record.codim,
                "fiber_dim": row.record.fiber_dim,
                "margin": row.margin,
                "ok": row.ok,
            }
            for row in report.rows
        ],
        "aggregate": [
            {"fiber_dim": f, "min_codim": c, "ok": ok} for f, c, ok in report.aggregate
        ],
    }
    outcome = "PASS" if report.passed else "FAIL"
    verdict = "PASS (vacuous)" if report.vacuous else f"{outcome} (min margin {report.min_margin})"
    headers = ("beta", "parts", "codim", "fiber_dim", "margin", "ok")
    rows = [
        (
            row.record.beta,
            row.record.parts,
            row.record.codim,
            row.record.fiber_dim,
            "-" if row.margin is None else row.margin,
            "yes" if row.ok else "NO",
        )
        for row in report.rows
    ]
    return Output(result, headers, rows, prefix=(verdict,), code=0 if report.passed else 1)


def _cmd_ic_stalks(args, caps, n, alpha, beta) -> Output:
    parts = _parse_parts(args.parts, n)
    table = ic_stalk_table(n, alpha, beta, parts, caps=caps)
    parity_ok = parity_check(table)
    result = {
        "entries": [
            {"degree": e.degree, "twist": e.twist, "multiplicity": e.multiplicity}
            for e in table.entries
        ],
        "parity_ok": parity_ok,
    }
    rows = [(e.degree, e.twist, e.multiplicity) for e in table.entries]
    return Output(
        result, ("degree", "twist", "multiplicity"), rows,
        prefix=(f"parity {'ok' if parity_ok else 'VIOLATED'}",), code=0 if parity_ok else 1,
        params={"parts": _parts_json(parts)},
    )


def _cmd_fiber_count(args, caps, n, gamma) -> Output:
    params = {"q": args.q, "verify": args.verify}
    if args.verify:
        report = verify_against_kostant(n, gamma, args.q, caps=caps)
        verdict = "PASS" if report.passed else "FAIL"
        result = {
            "total": report.total_actual,
            "verify": {
                "passed": report.passed,
                "total_expected": report.total_expected,
                "missing_mu": [mu.flat() for mu in report.missing_mu],
                "unexpected_mu": [mu.flat() for mu in report.unexpected_mu],
                "buckets": [
                    {"mu": b.mu.flat(), "expected": b.expected, "actual": b.actual, "ok": b.ok}
                    for b in report.buckets
                ],
            },
        }
        rows = [(b.mu, b.expected, b.actual, "yes" if b.ok else "NO") for b in report.buckets]
        return Output(
            result, ("mu", "expected", "actual", "ok"), rows,
            prefix=(f"{verdict}, total {report.total_actual}",),
            code=0 if report.passed else 1, params=params,
        )
    count = fiber_point_count(n, gamma, args.q, caps=caps)
    result = {
        "total": count.total,
        "buckets": [{"mu": mu.flat(), "count": c} for mu, c in count.buckets.items()],
    }
    rows = list(count.buckets.items())
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
    "fiber-count": (_cmd_fiber_count, "brute-force chain count over F_q", ("gamma",)),
}

_METAVARS = {"alpha": "a1,a2,..", "beta": "b1,b2,..", "gamma": "c1,c2,.."}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json", "csv"), default="table")
    # each cap flag stores into the Caps field of its dest
    common.add_argument("--cap-rank", dest="max_rank", type=int, metavar="N")
    common.add_argument("--cap-length", dest="max_length", type=int, metavar="L")
    common.add_argument("--cap-oracle-rank", dest="oracle_max_rank", type=int, metavar="N")
    common.add_argument("--cap-oracle-length", dest="oracle_max_length", type=int, metavar="L")
    common.add_argument("--cap-oracle-primes", dest="oracle_primes", type=_int_list, metavar="Q,Q")
    common.add_argument("--cap-lattice-volume", dest="max_lattice_volume", type=int, metavar="V")

    parser = argparse.ArgumentParser(
        prog="quasiflags",
        description="Coroot partition combinatorics and finite-field fiber counting for SL(n).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in HANDLERS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("--n", type=int, required=True)
        for flag in flags:
            p.add_argument(f"--{flag}", required=True, metavar=_METAVARS[flag])
    sub.choices["ic-stalks"].add_argument("--parts", default="", metavar='"g;g;.."')
    sub.choices["fiber-count"].add_argument("--q", type=int, required=True)
    sub.choices["fiber-count"].add_argument("--verify", action="store_true")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
    params = {"n": args.n, **{f: list(v.coeffs) for f, v in zip(flags, vectors)}, **out.params}
    _emit(_render(args.format, args.command, params, out))
    return out.code
