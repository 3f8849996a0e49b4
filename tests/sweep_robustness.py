"""Robustness sweep: every CLI command on seeded inputs of each family, with
the outcome of each run tabulated.

    PYTHONPATH=src python tests/sweep_robustness.py [--seed 0] [--count 12]

Each run goes through `mahlerlat.cli.main` in this one process, under its
own alarm (SIGALRM, no extra thread).  An outcome is one of exit 0, exit 1
(a user error), exit 2 certification (a typed CertificationError), exit 2
assertion, a traceback (an exception that escaped `main`) or a timeout.
The script exits 1 when any run ends in a traceback, an assertion exit or
a timeout, which are defects; certification failures are counted by family.
pytest does not collect this file.

The table has a row per family and a column per command; a cell such as
"9·0 2·1 1·2c" counts the runs by outcome: 0 and 1 are exit codes, 2c and
2a exit 2 with a certification error or an assertion, tb a traceback and
to a timeout.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import os
import random
import signal
import sys
import time
from collections import Counter

from mahlerlat.cli import main
from mahlerlat.intpoly import IntPoly

ALARM_SECONDS = 20
OUTCOMES = ("0", "1", "2c", "2a", "tb", "to")
DEFECTS = ("2a", "tb", "to")
COMMANDS = {
    "mahler": ["mahler"],
    "classify": ["classify"],
    "bounds": ["bounds"],
    "trace-poly": ["trace-poly"],
    "construct --m 3": ["construct", "--m", "3"],
    "adjoint --n 2": ["adjoint", "--n", "2"],
    "adjoint --n 60": ["adjoint", "--n", "60"],
}


def dense(rng):
    height = rng.choice((1, 3, 10, 1000))
    return [rng.randint(-height, height) for _ in range(rng.randint(2, 12))] + [1]


def palindromic(rng):
    """Monic palindromic of even degree 4-16."""
    height = rng.randint(1, 3)
    half = [rng.randint(-height, height) for _ in range(rng.randint(2, 8))]
    return [1] + half + half[-2::-1] + [1]


def sparse(rng):
    degree = rng.randint(4, 30)
    cs = [0] * degree + [1]
    cs[0] = rng.choice((-2, -1, 1, 2))
    cs[rng.randint(1, degree - 1)] = rng.randint(-3, 3)
    return cs


def repeated(rng):
    """f^m g for small monic f and g, m = 2 or 3."""
    f = IntPoly([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))] + [1])
    g = IntPoly([rng.randint(-2, 2) for _ in range(rng.randint(1, 4))] + [1])
    return (f ** rng.randint(2, 3) * g).coeffs


def non_monic(rng):
    cs = [rng.randint(-3, 3) for _ in range(rng.randint(2, 10))] + [rng.randint(2, 5)]
    cs[0] = cs[0] or 1
    return cs


def mignotte(rng):
    """x^n - 2(ax - 1)^2."""
    n, a = rng.choice((8, 14, 20)), rng.randint(3, 39)
    cs = [0] * (n + 1)
    cs[n] = 1
    cs[0], cs[1], cs[2] = -2, 4 * a, -2 * a * a
    return cs


def large_height(rng):
    e = rng.choice((10, 28, 40, 150, 300))
    return [rng.randint(-10**e, 10**e) for _ in range(rng.randint(2, 8))] + [1]


def large_alpha(rng):
    """x^2 - 10^e x + 1 and x^4 - 10^e x^3 + c x^2 - 10^e x + 1, members
    whose outside root is about 10^e."""
    e = rng.choice((3, 10, 20, 50, 150, 300))
    if rng.random() < 0.5:
        return [1, -10**e, 1]
    return [1, -10**e, rng.randint(-3, 3), -10**e, 1]


FAMILIES = {f.__name__.replace("_", " "): f for f in (
    dense, palindromic, sparse, repeated, non_monic, mignotte, large_height, large_alpha)}


class Timeout(BaseException):
    """Raised by the alarm; a BaseException, so no handler in main takes it."""


def _alarm(signum, frame):
    raise Timeout


def run_one(argv: list[str]) -> tuple[str, str]:
    """(outcome, detail) of main(argv), with stdout discarded."""
    err = io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, ALARM_SECONDS)
    try:
        with open(os.devnull, "w") as out, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = main(argv)
    except Timeout:
        return "to", ""
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the sweep's subject: an exception that escaped main
        return "tb", f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if code == 2:
        kind = "c" if err.getvalue().startswith('{"error": "certification"') else "a"
        return f"2{kind}", err.getvalue().strip()[:200]
    return str(code), ""


def sweep(seed: int, count: int) -> tuple[dict, list]:
    signal.signal(signal.SIGALRM, _alarm)
    table, defects = {}, []
    for name, draw in FAMILIES.items():
        rng = random.Random(f"{seed}:{name}")
        polys = [" ".join(map(str, draw(rng))) for _ in range(count)]
        for command, args in COMMANDS.items():
            tally = table[name, command] = Counter()
            for poly in polys:
                argv = args[:1] + [poly] + args[1:]
                outcome, detail = run_one(argv)
                tally[outcome] += 1
                if outcome in DEFECTS:
                    defects.append((name, command, poly[:80], outcome, detail))
    return table, defects


def print_table(table: dict) -> None:
    print("| family | " + " | ".join(f"`{c}`" for c in COMMANDS) + " |")
    print("|---" * (len(COMMANDS) + 1) + "|")
    for family in FAMILIES:
        cells = (" ".join(f"{table[family, c][o]}·{o}" for o in OUTCOMES if table[family, c][o])
                 for c in COMMANDS)
        print(f"| {family} | " + " | ".join(cells) + " |")


def cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=12, help="inputs per family")
    args = parser.parse_args(argv)
    start = time.monotonic()
    table, defects = sweep(args.seed, args.count)
    print_table(table)
    runs = sum(sum(t.values()) for t in table.values())
    totals = Counter()
    for tally in table.values():
        totals.update(tally)
    print(f"\n{runs} runs in {time.monotonic() - start:.1f} s: "
          + ", ".join(f"{totals[o]}·{o}" for o in OUTCOMES))
    for defect in defects:
        print("DEFECT:", *defect, sep="\n  ")
    return 1 if defects else 0


if __name__ == "__main__":
    sys.exit(cli())
