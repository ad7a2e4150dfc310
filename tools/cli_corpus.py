"""A seeded corpus of CLI requests, run in process, one outcome line each.

The requests come from this script's own ``random.Random(seed)``, never
from the package's sampler, so two checkouts run the same requests.  They
cover every command and every ``arith`` op in dims 1 and 2, refusals
included; the descriptors that ``auto`` prints go to a temporary directory
and are applied.  Each request runs through ``lexarith.cli.main`` and
prints one line: the argv as JSON (a descriptor file as ``DESC``, an
argument over 200 characters as its length and a digest), the exit code,
and the SHA-256 of stdout.  ``diff`` of the output of two checkouts
names every request whose answer moved.  Stdlib only.

Run from the repository root::

    PYTHONPATH=src python3 tools/cli_corpus.py --seed 1 --rounds 100 > corpus.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import random
import sys
import tempfile
from fractions import Fraction

from lexarith.cli import main

OPS = ("add", "mul", "sub", "divmod", "pow", "root")
SEQ_KINDS = ("e0", "e2", "b11")
SUITES = ("algebra", "division", "equivalence", "agreement", "separation", "sequences", "embed", "nope")
COMPONENTS = tuple(map(Fraction, ("1", "2", "3", "1/2", "3/2", "5/3")))
SECOND = tuple(map(Fraction, ("-2", "-1", "0", "1", "2", "1/3")))
COEFFS = tuple(map(Fraction, ("1", "1", "2", "3", "1/2", "5/4")))

# t^64 + t^63 + the terms t^(63 - 1/j): windowed powers that outgrow the
# root expansion's term ceiling in a few steps
_TAIL = [f"({63 * j - 1}/{j})" for j in range(2, 10)]


def _many(n: int) -> str:
    """t^(n-1) + ... + t + 1: n terms."""
    return " + ".join(f"t^{i}" for i in range(n - 1, -1, -1))


def _wide(terms: int, digits: int) -> str:
    """Coefficients 1/(10^(digits-1) + k) with distinct denominators."""
    return " + ".join(f"1/{10 ** (digits - 1) + k}*t^{terms - k}" for k in range(terms))


def _square(n: int) -> str:
    """The square of _many(n), whose quotient by _many(n) is _many(n)."""
    return " + ".join(f"{min(k, 2 * n - 2 - k) + 1}*t^{k}" for k in range(2 * n - 2, -1, -1))


FIXED = [
    ("eval", "t^"),
    ("eval", "-t"),
    ("eval", "--help"),
    ("--nope",),
    ("cmp", "--dim", "2", "t", "t^(1,0)"),
    ("equiv", "--level", "2", "5", "t"),
    ("equiv", "--level", "4", "t^1600 + 1", "t + 1"),
    ("arith", "pow", "t+1", "100000"),
    ("arith", "root", "t", "0"),
    ("arith", "root", "t^(2,0) + t^(2,-1) + t^(2,-3)", "2", "--dim", "2", "--budget", "1024"),
    ("arith", "divmod", "t^2", "t", "--budget", "0"),
    ("arith", "divmod", "t^10000000", "t - t^(1/2)"),
    ("arith", "root", " + ".join(["t^64", "t^63"] + [f"t^{e}" for e in _TAIL]), "2"),
    ("arith", "root", " + ".join(["t^(64,0)", "t^(63,0)"] + [f"t^({e[1:-1]},0)" for e in _TAIL]), "2", "--dim", "2"),
    # many terms and wide, distinct denominators, on both sides of the
    # multiply's work ceiling
    ("arith", "mul", _many(256), _many(256)),
    ("arith", "mul", _many(257), _many(257)),
    ("arith", "mul", _wide(16, 100), _wide(16, 100)),
    ("arith", "mul", _wide(16, 1000), _wide(16, 1000)),
    ("arith", "pow", _wide(4, 4300), "2"),
    ("arith", "pow", _wide(16, 4300), "2"),
    ("arith", "divmod", _square(256), _many(256)),
    ("arith", "divmod", _square(257), _many(257)),
    ("arith", "divmod", "t^256", "t - " + "7" * 1000 + "*t^(1/2)"),
    ("arith", "divmod", "t^(1025/2)", "t - 12345*t^(1/2)"),
    ("arith", "divmod", "t^(9,0)", "t^(1,0) - " + "9" * 4000 + "*t^(1,-1)", "--dim", "2"),
    ("seq", "e0", "t", "--count", "-1"),
    ("seq", "b11", "t^2", "--count", "30"),
    ("suite", "--samples", "20000"),
]
# the descriptor file that each auto request writes
AUTO = "auto.json"
# descriptor files, as text, applied to t in dim 1
FILES = {
    "not-json": "{nope",
    "unknown-kind": '{"kind": "rotate"}',
    "long-offset": '{"kind": "e0_class_shift", "anchor": {"terms": [{"exp": ["1"], "coeff": "1"}]}, "offset": '
    + "7" * 5000 + "}",
    "too-deep": '{"kind":"inverse","of":' * 400 + '{"kind":"identity"}' + "}" * 400,
}


def _rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _text(terms: list, dim: int) -> str:
    """The element text of (exponent, coefficient) terms, in the order given."""
    parts = []
    for exp, c in terms:
        body = _rational(abs(c))
        if any(exp):
            comps = ",".join(map(_rational, exp))
            body = ("" if abs(c) == 1 else body + "*") + f"t^({comps})"
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts) or "0"
    return text[2:] if text.startswith("+ ") else text


def _terms(r: random.Random, dim: int) -> list:
    """One to four terms in descending order; the lower ones may be
    negative, and a zero exponent may carry a fraction (refused)."""
    terms = []
    for _ in range(r.randint(1, 4)):
        if r.random() < 0.2:
            terms.append(((Fraction(0),) * dim, Fraction(r.randint(1, 9))))
            continue
        first = r.choice(COMPONENTS) if r.random() < 0.7 else Fraction(0)
        second = r.choice(SECOND) if first else abs(r.choice(SECOND))
        terms.append(((first,) if dim == 1 else (first, second), r.choice(COEFFS)))
    terms.sort(reverse=True)
    return [(e, -c if i and r.random() < 0.3 else c) for i, (e, c) in enumerate(terms)]


def _related(r: random.Random, a: list, dim: int, level: int) -> list:
    """A term list meant to relate to a at the level, or an independent draw."""
    if r.random() < 0.3:
        return _terms(r, dim)
    zero = (Fraction(0),) * dim
    if level == 0:
        return a + [(zero, Fraction(r.randint(0, 9)))]
    if level == 1:
        return a + [((Fraction(1, 2),) + (Fraction(0),) * (dim - 1), r.choice(COEFFS))]
    if level == 2 or level == 3 and dim == 1:
        k = r.randint(1, 4)
        return [(e, c * k) for e, c in a]
    if level == 3 and dim == 2:
        d = r.choice(SECOND)
        return [((e[0], e[1] + d) if e[0] else e, c) for e, c in a]
    s = r.choice((Fraction(2), Fraction(1, 2), Fraction(3, 2), Fraction(3)))
    return [(tuple(x * s for x in e), c) for e, c in a]


def _requests(r: random.Random, rounds: int, tmp: pathlib.Path):
    """The argv of every request; an ``apply`` after an ``auto`` reads the
    descriptor that the ``auto`` printed."""
    yield from map(list, FIXED)
    for name, text in FILES.items():
        (tmp / f"{name}.json").write_text(text)
        yield ["apply", "--desc", str(tmp / f"{name}.json"), "t"]
    for i in range(rounds):
        for dim in (1, 2):
            d = ["--dim", str(dim)]
            a_terms = _terms(r, dim)
            a, b = _text(a_terms, dim), _text(_related(r, a_terms, dim, r.randint(0, 4)), dim)
            if r.random() < 0.1:
                d.insert(0, "--pretty")
            yield ["eval", a, *d]
            yield ["cmp", a, b, *d]
            for op in OPS:
                arg = {"pow": str(r.randint(0, 5)), "root": str(r.randint(1, 4))}.get(op, b)
                budget = ["--budget", str(r.randint(1, 64))] if op in ("divmod", "root") and r.random() < 0.3 else []
                yield ["arith", op, a, arg, *d, *budget]
            for level in range(5):
                yield ["equiv", "--level", str(level), a, _text(_related(r, a_terms, dim, level), dim), *d]
            yield ["auto", "--from", a, "--to", _text(_related(r, a_terms, dim, r.choice((0, 2, 3))), dim), *d]
            yield ["apply", "--desc", str(tmp / AUTO), r.choice((a, _text(_terms(r, dim), dim))), *d]
            for kind in SEQ_KINDS:
                yield ["seq", kind, a, "--count", str(r.randint(0, 3)), "--direction", r.choice(("up", "down")), *d]
            yield ["embed", "--anchor", a, b, *d]
            if i % 10 == 0:
                yield ["suite", "--name", r.choice(SUITES), "--samples", str(r.randint(1, 3)), "--seed", str(i), *d]


def _short(arg: str) -> str:
    """arg, or for one over 200 characters its length and a digest."""
    if len(arg) <= 200:
        return arg
    return f"<{len(arg)} chars, sha256 {hashlib.sha256(arg.encode()).hexdigest()[:16]}>"


def run(seed: int, rounds: int, out) -> int:
    """Print one outcome line per request; the number of requests."""
    r = random.Random(seed)
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for argv in _requests(r, rounds, tmp):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(argv)
            text = stdout.getvalue()
            if argv[0] == "auto":
                (tmp / AUTO).write_text(text)
            shown = ["DESC" if x.startswith(str(tmp)) else _short(x) for x in argv]
            digest = hashlib.sha256(text.encode()).hexdigest()
            out.write(f"{json.dumps(shown)}\t{code}\t{digest}\n")
            count += 1
    return count


def _cli() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--rounds", type=int, default=100, help="rounds of requests in each dim")
    args = p.parse_args()
    count = run(args.seed, args.rounds, sys.stdout)
    print(f"{count} requests", file=sys.stderr)


if __name__ == "__main__":
    _cli()
