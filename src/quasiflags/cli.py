"""Command-line front end.

Eight subcommands expose the library over stdout in three formats (aligned
table, JSON, CSV). JSON payloads follow one schema: {"command": ...,
"params": ..., "result": ...} with degree vectors as integer arrays,
polynomials as coefficient arrays (index = exponent), and triangles as flat
row-major lower-triangular arrays [a11, a21, a22, a31, ...]. Output is a
pure function of the arguments, byte for byte.

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
from dataclasses import dataclass, fields, replace

from .kostant import IntPolynomial, kostant_poly
from .limits import Caps, DEFAULT_CAPS, CapExceededError
from .partitions import (
    GammaPartition,
    Triangle,
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


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class CliConfig:
    fmt: str
    caps: Caps


# ---------------------------------------------------------------------------
# parsing helpers


def _parse_n(args) -> int:
    if args.n < 2:
        raise UsageError(f"--n must be at least 2, got {args.n}")
    return args.n


def _parse_vector(text: str, n: int, name: str) -> GammaVec:
    pieces = text.split(",")
    if len(pieces) != n - 1:
        raise UsageError(
            f"--{name} needs {n - 1} comma-separated entries for --n {n}, got {text!r}"
        )
    try:
        values = tuple(int(x) for x in pieces)
    except ValueError:
        raise UsageError(f"--{name} entries must be integers, got {text!r}") from None
    if any(v < 0 for v in values):
        raise UsageError(f"--{name} entries must be nonnegative, got {text!r}")
    return GammaVec(values)


def _parse_parts(text: str, n: int) -> GammaPartition:
    chunks = [chunk for chunk in text.split(";") if chunk.strip()] if text else []
    parts = [_parse_vector(chunk.strip(), n, "parts") for chunk in chunks]
    for part in parts:
        if part.is_zero():
            raise UsageError("--parts entries must be nonzero vectors")
    return GammaPartition.of(n, parts)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integers: {text!r}") from None


# ---------------------------------------------------------------------------
# JSON serialization (the schema other tools consume)


def _vec_json(v: GammaVec) -> list[int]:
    return list(v.coeffs)


def _parts_json(parts: GammaPartition) -> list[list[int]]:
    return [_vec_json(p) for p in parts.parts]


def _poly_json(p: IntPolynomial) -> list[int]:
    return list(p.coeffs)


def _triangle_json(t: Triangle) -> list[int]:
    return t.flat()


def _record_json(rec: StratumRecord) -> dict:
    return {
        "beta": _vec_json(rec.beta),
        "parts": _parts_json(rec.parts),
        "m": rec.m,
        "stratum_dim": rec.stratum_dim,
        "codim": rec.codim,
        "fiber_dim": rec.fiber_dim,
        "fiber_poincare": _poly_json(rec.fiber_poincare),
    }


def _record_from_json(obj: dict) -> StratumRecord:
    beta = GammaVec(tuple(obj["beta"]))
    parts = GammaPartition.of(beta.n, [GammaVec(tuple(p)) for p in obj["parts"]])
    return StratumRecord(
        beta=beta,
        parts=parts,
        m=obj["m"],
        stratum_dim=obj["stratum_dim"],
        codim=obj["codim"],
        fiber_dim=obj["fiber_dim"],
        fiber_poincare=IntPolynomial(tuple(obj["fiber_poincare"])),
    )


def stratum_records_from_json(payload: dict) -> list[StratumRecord]:
    """Rebuild the records of a `strata --format json` payload."""
    return [_record_from_json(obj) for obj in payload["result"]["strata"]]


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


def _render_table(headers, rows) -> str:
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _emit(text: str) -> None:
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; send what is left, and the flush at exit, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _finish(cfg, command, params, result, headers, rows, prefix=(), code=0) -> int:
    if cfg.fmt == "json":
        payload = {"command": command, "params": params, "result": result}
        _emit(json.dumps(payload, indent=2) + "\n")
    elif cfg.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        for row in rows:
            writer.writerow([str(c) for c in row])
        _emit(buf.getvalue())
    else:
        _emit("".join(line + "\n" for line in (*prefix, _render_table(headers, rows))))
    return code


# ---------------------------------------------------------------------------
# subcommands


def _cmd_roots(args, cfg) -> int:
    n = _parse_n(args)
    coroots = positive_coroots(n, caps=cfg.caps)
    expansions = [interval_to_gamma(c, n) for c in coroots]
    params = {"n": n}
    result = {
        "coroots": [
            {"p": c.p, "q": c.q, "gamma": _vec_json(g)}
            for c, g in zip(coroots, expansions)
        ]
    }
    headers = ("coroot", "p", "q", "gamma")
    rows = [(str(c), c.p, c.q, str(g)) for c, g in zip(coroots, expansions)]
    return _finish(cfg, "roots", params, result, headers, rows)


def _cmd_kpartitions(args, cfg) -> int:
    n = _parse_n(args)
    gamma = _parse_vector(args.gamma, n, "gamma")
    kappas = kappa_partitions(gamma, caps=cfg.caps)
    mus = [nu_to_mu(kappa_to_nu(k)) for k in kappas]
    params = {"n": n, "gamma": _vec_json(gamma)}
    result = {
        "count": len(kappas),
        "partitions": [
            {
                "kappa": [[c.p, c.q, m] for c, m in k.mult],
                "num_parts": k.num_parts,
                "mu": _triangle_json(mu),
                "stratum_dim": stratum_dim(mu),
            }
            for k, mu in zip(kappas, mus)
        ],
    }
    headers = ("partition", "num_parts", "mu", "stratum_dim")
    rows = [
        (str(k), k.num_parts, str(mu), stratum_dim(mu)) for k, mu in zip(kappas, mus)
    ]
    return _finish(cfg, "kpartitions", params, result, headers, rows)


def _cmd_kostant(args, cfg) -> int:
    n = _parse_n(args)
    gamma = _parse_vector(args.gamma, n, "gamma")
    poly = kostant_poly(gamma, caps=cfg.caps)
    if cfg.fmt == "table":
        _emit(f"{poly}\n")
        return 0
    params = {"n": n, "gamma": _vec_json(gamma)}
    result = {"coefficients": _poly_json(poly), "text": str(poly)}
    headers = ("exponent", "coefficient")
    rows = list(enumerate(poly.coeffs))
    return _finish(cfg, "kostant", params, result, headers, rows)


def _cmd_gamma_partitions(args, cfg) -> int:
    n = _parse_n(args)
    alpha = _parse_vector(args.alpha, n, "alpha")
    partitions = gamma_partitions(alpha, caps=cfg.caps)
    params = {"n": n, "alpha": _vec_json(alpha)}
    result = {
        "count": len(partitions),
        "partitions": [_parts_json(p) for p in partitions],
    }
    headers = ("partition", "num_parts")
    rows = [(str(p), p.m) for p in partitions]
    return _finish(cfg, "gamma-partitions", params, result, headers, rows)


def _cmd_strata(args, cfg) -> int:
    n = _parse_n(args)
    alpha = _parse_vector(args.alpha, n, "alpha")
    records = enumerate_strata(n, alpha, caps=cfg.caps)
    params = {"n": n, "alpha": _vec_json(alpha)}
    result = {
        "moduli_dim": moduli_dim(n, alpha),
        "count": len(records),
        "strata": [_record_json(r) for r in records],
    }
    headers = ("beta", "parts", "m", "stratum_dim", "codim", "fiber_dim", "fiber_poincare")
    rows = [
        (str(r.beta), str(r.parts), r.m, r.stratum_dim, r.codim, r.fiber_dim, str(r.fiber_poincare))
        for r in records
    ]
    return _finish(cfg, "strata", params, result, headers, rows)


def _cmd_smallness(args, cfg) -> int:
    n = _parse_n(args)
    alpha = _parse_vector(args.alpha, n, "alpha")
    report = smallness_report(n, alpha, caps=cfg.caps)
    params = {"n": n, "alpha": _vec_json(alpha)}
    result = {
        "passed": report.passed,
        "vacuous": report.vacuous,
        "min_margin": report.min_margin,
        "witness": _record_json(report.witness) if report.witness else None,
        "rows": [
            {
                "beta": _vec_json(row.record.beta),
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
    if report.passed:
        verdict = "PASS (vacuous)" if report.vacuous else f"PASS (min margin {report.min_margin})"
    else:
        verdict = f"FAIL (min margin {report.min_margin})"
    headers = ("beta", "parts", "codim", "fiber_dim", "margin", "ok")
    rows = [
        (
            str(row.record.beta),
            str(row.record.parts),
            row.record.codim,
            row.record.fiber_dim,
            "-" if row.margin is None else row.margin,
            "yes" if row.ok else "NO",
        )
        for row in report.rows
    ]
    return _finish(
        cfg, "smallness", params, result, headers, rows,
        prefix=(verdict,), code=0 if report.passed else 1,
    )


def _cmd_ic_stalks(args, cfg) -> int:
    n = _parse_n(args)
    alpha = _parse_vector(args.alpha, n, "alpha")
    beta = _parse_vector(args.beta, n, "beta")
    parts = _parse_parts(args.parts, n)
    table = ic_stalk_table(n, alpha, beta, parts, caps=cfg.caps)
    parity_ok = parity_check(table)
    params = {
        "n": n,
        "alpha": _vec_json(alpha),
        "beta": _vec_json(beta),
        "parts": _parts_json(parts),
    }
    result = {
        "entries": [
            {"degree": e.degree, "twist": e.twist, "multiplicity": e.multiplicity}
            for e in table.entries
        ],
        "parity_ok": parity_ok,
    }
    headers = ("degree", "twist", "multiplicity")
    rows = [(e.degree, e.twist, e.multiplicity) for e in table.entries]
    prefix = (f"parity {'ok' if parity_ok else 'VIOLATED'}",)
    return _finish(
        cfg, "ic-stalks", params, result, headers, rows,
        prefix=prefix, code=0 if parity_ok else 1,
    )


def _cmd_fiber_count(args, cfg) -> int:
    n = _parse_n(args)
    gamma = _parse_vector(args.gamma, n, "gamma")
    params = {"n": n, "gamma": _vec_json(gamma), "q": args.q, "verify": bool(args.verify)}
    if args.verify:
        report = verify_against_kostant(n, gamma, args.q, caps=cfg.caps)
        verdict = "PASS" if report.passed else "FAIL"
        result = {
            "total": report.total_actual,
            "verify": {
                "passed": report.passed,
                "total_expected": report.total_expected,
                "missing_mu": [_triangle_json(mu) for mu in report.missing_mu],
                "unexpected_mu": [_triangle_json(mu) for mu in report.unexpected_mu],
                "buckets": [
                    {
                        "mu": _triangle_json(b.mu),
                        "expected": b.expected,
                        "actual": b.actual,
                        "ok": b.ok,
                    }
                    for b in report.buckets
                ],
            },
        }
        headers = ("mu", "expected", "actual", "ok")
        rows = [
            (str(b.mu), b.expected, b.actual, "yes" if b.ok else "NO")
            for b in report.buckets
        ]
        prefix = (f"{verdict}, total {report.total_actual}",)
        return _finish(
            cfg, "fiber-count", params, result, headers, rows,
            prefix=prefix, code=0 if report.passed else 1,
        )
    count = fiber_point_count(n, gamma, args.q, caps=cfg.caps)
    result = {
        "total": count.total,
        "buckets": [
            {"mu": _triangle_json(mu), "count": c} for mu, c in count.buckets.items()
        ],
    }
    headers = ("mu", "count")
    rows = [(str(mu), c) for mu, c in count.buckets.items()]
    return _finish(
        cfg, "fiber-count", params, result, headers, rows,
        prefix=(f"total {count.total}",),
    )


HANDLERS = {
    "roots": _cmd_roots,
    "kpartitions": _cmd_kpartitions,
    "kostant": _cmd_kostant,
    "gamma-partitions": _cmd_gamma_partitions,
    "strata": _cmd_strata,
    "smallness": _cmd_smallness,
    "ic-stalks": _cmd_ic_stalks,
    "fiber-count": _cmd_fiber_count,
}


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

    p = sub.add_parser("roots", parents=[common], help="list the positive coroots")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("kpartitions", parents=[common], help="partitions of gamma into coroots")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=str, required=True, metavar="c1,c2,..")

    p = sub.add_parser("kostant", parents=[common], help="the q-analogue polynomial K_gamma(t)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=str, required=True, metavar="c1,c2,..")

    p = sub.add_parser(
        "gamma-partitions", parents=[common], help="multiset partitions of a degree vector"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=str, required=True, metavar="a1,a2,..")

    p = sub.add_parser("strata", parents=[common], help="the stratification atlas for (n, alpha)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=str, required=True, metavar="a1,a2,..")

    p = sub.add_parser("smallness", parents=[common], help="verify codim > 2*fiber_dim per stratum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=str, required=True, metavar="a1,a2,..")

    p = sub.add_parser("ic-stalks", parents=[common], help="IC stalk table over one stratum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=str, required=True, metavar="a1,a2,..")
    p.add_argument("--beta", type=str, required=True, metavar="b1,b2,..")
    p.add_argument("--parts", type=str, default="", metavar='"g;g;.."')

    p = sub.add_parser("fiber-count", parents=[common], help="brute-force chain count over F_q")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=str, required=True, metavar="c1,c2,..")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--verify", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    given = {f.name: v for f in fields(Caps) if (v := getattr(args, f.name)) is not None}
    cfg = CliConfig(fmt=args.format, caps=replace(DEFAULT_CAPS, **given))
    try:
        return HANDLERS[args.command](args, cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
