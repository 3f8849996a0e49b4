"""Command-line surface, file formats, and report emission.

Polynomial text format: space-separated integer coefficients, constant term
first.  Corpus files hold one polynomial per line with '#' comments.  All
reports are JSON with a top-level schema_version, stable field order, and
floats formatted at 12 significant digits (null when not finite), so
identical inputs produce byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

from . import __version__
from .intpoly import IntPoly
from .roots import CertificationError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USER_ERROR = 1
EXIT_INTERNAL = 2


def _f(x: float) -> Optional[float]:
    """Normalize a float to 12 significant digits for stable JSON output; a
    non-finite float is null, since JSON has no Infinity or NaN."""
    x = float(x)
    return float(f"{x:.12g}") if math.isfinite(x) else None


def _c(z: complex) -> list[Optional[float]]:
    return [_f(z.real), _f(z.imag)]


@dataclass(frozen=True)
class CorpusEntry:
    poly: IntPoly
    label: Optional[str] = None


def parse_poly(text: str) -> IntPoly:
    try:
        p = IntPoly.parse(text)
    except ValueError as exc:
        raise SystemExit(f"error: invalid polynomial {text!r}: {exc}")
    if p.is_zero:
        raise SystemExit("error: the zero polynomial is not accepted")
    return p


def _parse_corpus(lines) -> list[CorpusEntry]:
    entries = []
    for line in lines:
        body, _, comment = line.partition("#")
        body = body.strip()
        if body:
            entries.append(CorpusEntry(IntPoly.parse(body), comment.strip() or None))
    return entries


def load_corpus(path: str) -> list[CorpusEntry]:
    with open(path) as handle:
        return _parse_corpus(handle)


def bundled_corpus() -> list[CorpusEntry]:
    from importlib import resources

    path = resources.files("mahlerlat.data") / "corpus.txt"
    return _parse_corpus(path.read_text().splitlines())


def _report(payload: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "version": __version__, **payload}


def _emit(payload: dict) -> None:
    print(json.dumps(_report(payload), indent=2))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_mahler(args) -> int:
    from .mahler import mahler_measure

    p = parse_poly(args.poly)
    cert = mahler_measure(p)
    _emit(
        {
            "command": "mahler",
            "poly": str(p),
            "value": _f(cert.value),
            "error_radius": _f(cert.error_radius),
            "kronecker": cert.is_one_exact,
        }
    )
    return EXIT_OK


def cmd_classify(args) -> int:
    from .fields import classify_Psr
    from .roots import refine_roots
    from .salem import SalemCertificate

    p = parse_poly(args.poly)
    cls = classify_Psr(p)
    profile = cls.profile or refine_roots(p)
    payload = {
        "command": "classify",
        "poly": str(p),
        "degree": profile.degree,
        "s": profile.s,
        "r": profile.r,
        "on_circle": profile.on_circle,
        "inside": profile.inside,
        "palindromic": p.is_palindromic(),
        "member": cls.member,
        "member_reason": cls.reason,
        "satisfies_L": cls.satisfies_L,
        "roots": [
            {
                "approx": _c(z.approx),
                "radius": _f(z.radius),
                "multiplicity": z.multiplicity,
                "location": z.location,
                "realness": z.realness,
            }
            for z in profile.roots
        ],
    }
    # the Salem value is read off the disks listed above
    if p.is_monic and p.degree >= 1:
        cert = SalemCertificate.of(profile)
        payload["salem_kind"] = cert.kind
        payload["salem_value"] = _f(cert.salem_value) if cert.salem_value else None
        payload["irreducibility"] = cert.irreducibility.status
    _emit(payload)
    return EXIT_OK


def cmd_trace_poly(args) -> int:
    from .fields import field_summary, multiplication_matrix

    p = parse_poly(args.poly)
    summary = field_summary(p)
    _emit(
        {
            "command": "trace-poly",
            "poly": str(p),
            "trace_poly": str(summary.trace_poly),
            "d": summary.d,
            "s": summary.s,
            "r": summary.r,
            "signature_K": list(summary.signature_K),
            "embeddings": [
                {
                    "index": e.index,
                    "alpha": _c(e.alpha_value),
                    "class": e.klass,
                }
                for e in summary.embeddings
            ],
            "multiplication_matrix": multiplication_matrix(p),
        }
    )
    return EXIT_OK


def cmd_search(args) -> int:
    from .salem import search_box

    filter_sr = None
    if (args.s is None) != (args.r is None):
        raise SystemExit("error: --s and --r must be given together")
    if args.s is not None:
        filter_sr = (args.s, args.r)
    if args.top < 0:
        raise ValueError("--top must be >= 0")
    result = search_box(
        args.deg,
        args.height,
        filter_sr=filter_sr,
        palindromic_only=args.palindromic,
        budget_seconds=args.budget,
    )
    if args.emit_plot:
        _emit_min_by_degree(result, args.emit_plot)
    _emit(
        {
            "command": "search",
            "degree_max": args.deg,
            "height_max": args.height,
            "palindromic_only": args.palindromic,
            "filter_sr": list(filter_sr) if filter_sr else None,
            "scanned": result.scanned,
            "complete": result.complete,
            "elapsed": _f(result.elapsed),
            "minima": [
                {"poly": str(p), "value": _f(c.value), "error_radius": _f(c.error_radius)}
                for p, c in result.minima[: args.top]
            ],
        }
    )
    return EXIT_OK


def _emit_min_by_degree(result, path: str) -> None:
    best: dict[int, float] = {}
    for p, cert in result.minima:
        d = p.degree
        if d not in best or cert.value < best[d]:
            best[d] = cert.value
    with open(path, "w") as handle:
        for d in sorted(best):
            handle.write(f"{d}\t{_f(best[d])}\n")


def cmd_beta_n(args) -> int:
    from .salem import beta_n

    cert = beta_n(args.n, args.height)
    _emit(
        {
            "command": "beta-n",
            "n": cert.n,
            "height_max": cert.height_max,
            "poly": str(cert.poly),
            "salem_value": _f(cert.salem_value),
            "log_value": _f(cert.log_value),
            "note": cert.note,
        }
    )
    return EXIT_OK


def cmd_construct(args) -> int:
    from .fields import field_summary
    from .lattice import build_gamma, gamma_power_report

    p = parse_poly(args.poly)
    summary = field_summary(p)
    element = build_gamma(summary, args.n)
    report = gamma_power_report(element, args.m)
    _emit(
        {
            "command": "construct",
            "poly": str(p),
            "n": args.n,
            "m": args.m,
            "t": summary.t,
            "cocompact": element.cocompact,
            "dirichlet_c": report.witness.c,
            "power": report.power,
            "eta": [report.eta.numerator, report.eta.denominator],
            "mahler": _f(report.mahler.value),
            "mahler_hypothesis_met": report.mahler_hypothesis_met,
            "distance_to_identity": _f(report.distance_to_identity),
            "infinite_order": report.infinite_order,
            "eigenvalues": [
                {
                    "value": _c(e.value),
                    "log_modulus": _f(e.log_modulus),
                    "argument": _f(e.argument),
                    "log_modulus_in_window": e.log_modulus_in_window,
                    "argument_in_window": e.argument_in_window,
                }
                for e in report.eigenvalues
            ],
        }
    )
    return EXIT_OK


def parse_m_range(text: str) -> list[int]:
    """The powers m in an inclusive range "A..B" with 1 <= A <= B."""
    try:
        lo, hi = (int(part) for part in text.split(".."))
    except ValueError:
        lo = hi = 0
    if not 1 <= lo <= hi:
        raise ValueError("--m-range must be A..B with 1 <= A <= B")
    return list(range(lo, hi + 1))


def cmd_scan(args) -> int:
    from .fields import classify_Psr
    from .lattice import counterexample_scan

    m_values = parse_m_range(args.m_range)
    entries = load_corpus(args.corpus)
    skipped = []
    classes: dict[tuple[int, int], list[IntPoly]] = {}
    for entry in entries:
        cls = classify_Psr(entry.poly)
        if cls.member:
            classes.setdefault((cls.s, cls.r), []).append(entry.poly)
        else:
            skipped.append({"poly": str(entry.poly), "reason": cls.reason})
    scanned = [
        (sr, e)
        for sr in sorted(classes)
        for e in counterexample_scan(classes[sr], args.n, m_values).entries
    ]
    _emit(
        {
            "command": "scan",
            "corpus": args.corpus,
            "n": args.n,
            "m_values": m_values,
            "skipped": skipped,
            "entries": [
                {
                    "poly": str(e.poly),
                    "class": list(sr),
                    "m": e.m,
                    "hypothesis_met": e.hypothesis_met,
                    "hypothesis_gap": _f(e.hypothesis_gap) if e.hypothesis_gap else None,
                    "chain_holds": e.chain_holds,
                    "argument_window_ok": e.report.all_argument_flags if e.report else None,
                }
                for sr, e in scanned
            ],
        }
    )
    return EXIT_OK


def cmd_bounds(args) -> int:
    from .mahler import (
        MahlerCertificate,
        dobrowolski_bound,
        is_totally_real,
        schinzel_bound,
        smyth_threshold,
        voutier_bound,
    )
    from .roots import refine_roots

    p = parse_poly(args.poly)
    d = p.degree
    profile = refine_roots(p)
    cert = MahlerCertificate.of(profile)
    payload = {
        "command": "bounds",
        "poly": str(p),
        "degree": d,
        "mahler": _f(cert.value),
        "kronecker": cert.is_one_exact,
        "voutier": _f(voutier_bound(d)) if d >= 2 else None,
        "dobrowolski": _f(dobrowolski_bound(d)) if d >= 2 else None,
        "schinzel": _f(schinzel_bound(d)) if d >= 2 else None,
        "totally_real": is_totally_real(profile),
        "smyth_threshold": _f(smyth_threshold()),
        "palindromic": p.is_palindromic(),
        "irreducibility": profile.irreducibility.status if d >= 1 else None,
    }
    _emit(payload)
    return EXIT_OK


def cmd_adjoint(args) -> int:
    from .adjoint import coefficient_bits_floor, global_integrality
    from .fields import field_summary

    p = parse_poly(args.poly)
    summary = field_summary(p)
    limit = sys.get_int_max_str_digits()
    # 2^b >= 2^(3.322 limit) > 10^limit: a coefficient of more than `limit`
    # digits, which str() refuses to print
    if limit and coefficient_bits_floor(summary, args.n) * 1000 >= limit * 3322:
        raise ValueError(
            f"--n {args.n} gives a global polynomial with coefficients of more than "
            f"{limit} digits, past Python's limit for printing an integer "
            "(sys.get_int_max_str_digits())"
        )
    report = global_integrality(summary, args.n)
    _emit(
        {
            "command": "adjoint",
            "poly": str(p),
            "n": args.n,
            "global_poly": str(report.global_poly),
            "f_values": [_f(v) for v in report.f_values],
            "f_total": _f(report.f_total),
            "s_global": report.s_global,
            "s_bound": report.s_bound,
            "s_bound_ok": report.s_bound_ok,
            "torsion": report.torsion,
        }
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mahlerlat",
        description="Exact Mahler measure, Salem certification, and "
        "near-identity lattice-element reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("mahler", help="Mahler measure certificate")
    s.add_argument("poly")
    s.set_defaults(func=cmd_mahler)

    s = sub.add_parser("classify", help="root profile, class membership, Salem kind")
    s.add_argument("poly")
    s.set_defaults(func=cmd_classify)

    s = sub.add_parser("trace-poly", help="trace polynomial and field summary")
    s.add_argument("poly")
    s.set_defaults(func=cmd_trace_poly)

    s = sub.add_parser("search", help="exhaustive box search for small measures")
    s.add_argument("--deg", type=int, required=True)
    s.add_argument("--height", type=int, required=True)
    s.add_argument("--s", type=int, default=None)
    s.add_argument("--r", type=int, default=None)
    s.add_argument("--palindromic", action="store_true")
    s.add_argument("--budget", type=float, default=None, help="seconds")
    s.add_argument("--top", type=int, default=20)
    s.add_argument("--emit-plot", default=None, help="write degree/min-measure TSV")
    s.set_defaults(func=cmd_search)

    s = sub.add_parser("beta-n", help="height-bounded beta_n certificate")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--height", type=int, required=True)
    s.set_defaults(func=cmd_beta_n)

    s = sub.add_parser("construct", help="gamma power report (JSON)")
    s.add_argument("poly")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--n", type=int, default=2)
    s.set_defaults(func=cmd_construct)

    s = sub.add_parser("scan", help="counterexample scan over a corpus file")
    s.add_argument("corpus")
    s.add_argument("--m-range", required=True, help="A..B inclusive")
    s.add_argument("--n", type=int, default=2)
    s.set_defaults(func=cmd_scan)

    s = sub.add_parser("bounds", help="classical lower-bound comparison")
    s.add_argument("poly")
    s.set_defaults(func=cmd_bounds)

    s = sub.add_parser("adjoint", help="adjoint characteristic polynomial report")
    s.add_argument("poly")
    s.add_argument("--n", type=int, default=2)
    s.set_defaults(func=cmd_adjoint)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except AssertionError as exc:
        print(f"internal assertion failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except CertificationError as exc:
        radii = [_f(r) for r in exc.achieved_radii]
        error = {"error": "certification", "message": str(exc), "achieved_radii": radii}
        print(json.dumps(error), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
