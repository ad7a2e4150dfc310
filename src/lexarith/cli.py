"""Command-line surface.

All machine output is a single JSON document on stdout, canonical enough to
be byte-identical for identical command and seed.  ``--pretty`` switches to
indented JSON for humans.

Exit codes follow the one failure rule of :mod:`lexarith.errors`:
  0  success
  1  violation, or a negative verdict where the command promises a positive
     (equiv that decides "no", auto without a route, failing suite)
  2  usage, parse, or precondition errors, including a command line the
     argument parser refuses (an ``InvariantViolation``; ``--help`` exits 0)
     and an ``apply`` descriptor file that is not UTF-8 JSON, nests too
     deeply, or fails the checks of
     :func:`lexarith.jsonio.descriptor_from_json`; an unreadable file is
     ``"io"``; an input larger than the package does work for is a
     ``ResourceLimit`` (a ``--budget`` above 1024, a power past its
     ceilings on terms, products or coefficient bits, as in ``arith pow``,
     ``seq b11`` and ``equiv --level 4``, or a result too long to print)
  3  model-partiality errors (NonTerminatingQuotient, CoefficientNotRepresentable)
  4  internal errors: any exception that is not a lexarith error (a bug,
     never partiality); the document is ``{"error": "internal", "detail": ...}``
"""

from __future__ import annotations

import argparse
import json
import sys

from . import analysis, automorph, equiv, jsonio, suites, textform
from .errors import CannotProve, InvariantViolation, LexarithError
from .model import (
    DEFAULT_DIV_BUDGET,
    Element,
    cmp,
    divmod_floor,
    pow_int,
    root_floor,
    sub,
)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals are lexarith errors, not exits;
    subcommand parsers are of the same class."""

    def error(self, message):
        raise InvariantViolation(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="lexarith",
        description="Exact arithmetic and order-automorphism toolkit",
    )
    p.add_argument("--pretty", action="store_true", help="indented JSON output")
    sub_p = p.add_subparsers(dest="command", required=True)

    def with_dim(sp):
        sp.add_argument("--dim", type=int, default=1, choices=(1, 2))
        return sp

    sp = with_dim(sub_p.add_parser("eval", help="parse and canonicalize an element"))
    sp.add_argument("expr")

    sp = with_dim(sub_p.add_parser("cmp", help="compare two elements"))
    sp.add_argument("a")
    sp.add_argument("b")

    sp = with_dim(sub_p.add_parser("arith", help="exact arithmetic"))
    sp.add_argument("op", choices=("add", "mul", "sub", "divmod", "pow", "root"))
    sp.add_argument("a")
    sp.add_argument("b", help="element, or a positive integer for pow/root")
    sp.add_argument("--budget", type=int, default=DEFAULT_DIV_BUDGET)

    sp = with_dim(sub_p.add_parser("equiv", help="decide an equivalence level"))
    sp.add_argument("--level", type=int, required=True, choices=equiv.LEVELS)
    sp.add_argument("a")
    sp.add_argument("b")

    sp = with_dim(sub_p.add_parser("auto", help="build an order-automorphism"))
    sp.add_argument("--from", dest="src", required=True)
    sp.add_argument("--to", dest="dst", required=True)

    sp = with_dim(sub_p.add_parser("apply", help="apply a descriptor file to an element"))
    sp.add_argument("--desc", required=True, help="path to a descriptor JSON file")
    sp.add_argument("x")

    sp = with_dim(sub_p.add_parser("seq", help="class sequences"))
    sp.add_argument("kind", choices=("e0", "e2", "b11"))
    sp.add_argument("a")
    sp.add_argument("--count", type=int, default=5)
    sp.add_argument("--direction", choices=("up", "down"), default="up")

    sp = with_dim(sub_p.add_parser("embed", help="rational embedding of level-3 classes"))
    sp.add_argument("--anchor", required=True)
    sp.add_argument("b")

    sp = with_dim(sub_p.add_parser("suite", help="run property suites"))
    sp.add_argument("--name", default="all")
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)

    return p


def _emit(obj, pretty: bool) -> None:
    text = jsonio.dumps_pretty(obj) if pretty else jsonio.dumps(obj)
    sys.stdout.write(text + "\n")


def _element_doc(e: Element) -> dict:
    return {"element": jsonio.element_to_json(e), "text": textform.format_element(e)}


def _run(args) -> tuple:
    """Returns (json document, exit code)."""
    dim = args.dim

    def parse(text: str) -> Element:
        return textform.parse_element(text, dim)

    if args.command == "eval":
        return _element_doc(parse(args.expr)), 0

    if args.command == "cmp":
        c = cmp(parse(args.a), parse(args.b))
        return {"cmp": c, "symbol": {-1: "<", 0: "=", 1: ">"}[c]}, 0

    if args.command == "arith":
        a = parse(args.a)
        if args.op in ("pow", "root"):
            try:
                k = int(args.b)
            except ValueError:
                raise InvariantViolation(f"{args.op} needs an integer, got {args.b!r}") from None
            result = pow_int(a, k) if args.op == "pow" else root_floor(a, k, args.budget)
            return _element_doc(result), 0
        b = parse(args.b)
        if args.op == "add":
            return _element_doc(a + b), 0
        if args.op == "mul":
            return _element_doc(a * b), 0
        if args.op == "sub":
            return _element_doc(sub(a, b)), 0
        q, r = divmod_floor(a, b, args.budget)
        return {
            "q": jsonio.element_to_json(q),
            "q_text": textform.format_element(q),
            "r": jsonio.element_to_json(r),
            "r_text": textform.format_element(r),
        }, 0

    if args.command == "equiv":
        v = equiv.decide(args.level, parse(args.a), parse(args.b))
        return jsonio.verdict_to_json(v), 0 if v.equivalent else 1

    if args.command == "auto":
        a, b = parse(args.src), parse(args.dst)
        try:
            d = automorph.prove_E5(a, b)
        except CannotProve as exc:
            return {"error": "cannot_prove", "detail": str(exc)}, 1
        return jsonio.descriptor_to_json(d), 0

    if args.command == "apply":
        with open(args.desc, "r", encoding="utf-8") as fh:
            try:
                desc = jsonio.descriptor_from_json(json.load(fh), dim)
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise InvariantViolation(f"descriptor file is not UTF-8 JSON: {exc}") from None
            except RecursionError:
                raise InvariantViolation("descriptor file nests too deeply") from None
        return _element_doc(automorph.apply(desc, parse(args.x))), 0

    if args.command == "seq":
        a = parse(args.a)
        if args.kind == "e0":
            seq = analysis.e0_seq(a, args.count, args.direction)
        elif args.kind == "e2":
            seq = analysis.e2_seq(a, args.count, args.direction)
        else:
            seq = analysis.b11_seq(a, args.count, args.direction)
        return jsonio.sequence_to_json(seq), 0

    if args.command == "embed":
        result = analysis.real_embed(parse(args.anchor), parse(args.b))
        return jsonio.embed_to_json(result), 0

    if args.command == "suite":
        results = suites.run_suites(args.name, args.samples, args.seed, dim)
        doc = {
            "suites": [suites.result_to_json(r) for r in results],
            "total_violations": sum(len(r.violations) for r in results),
            "samples": args.samples,
            "seed": args.seed,
            "dim": dim,
        }
        return doc, 0 if doc["total_violations"] == 0 else 1

    raise AssertionError(args.command)


def main(argv=None) -> int:
    args = None
    try:
        args = _build_parser().parse_args(argv)
        doc, code = _run(args)
    except SystemExit as exc:  # --help, after printing the help text
        return int(exc.code or 0)
    except LexarithError as exc:
        doc, code = {"error": type(exc).__name__, "detail": str(exc)}, exc.exit_code
    except OSError as exc:
        doc, code = {"error": "io", "detail": str(exc)}, 2
    except Exception as exc:
        doc, code = {"error": "internal", "detail": str(exc)}, 4
    _emit(doc, args is not None and args.pretty)
    return code


if __name__ == "__main__":
    sys.exit(main())
