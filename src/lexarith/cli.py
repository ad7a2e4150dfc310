"""Command-line surface.

All machine output is a single JSON document on stdout, canonical enough to
be byte-identical for identical command and seed.  ``--pretty`` switches to
indented JSON for humans.

Each request is a fresh process, so what it imports is part of its cost:
with no bytecode cache every module it loads is compiled from source.  At
the top this module imports only what parsing the command line and the
element commands (``eval``, ``cmp``, ``arith``) use: the model, the text
and JSON forms, and the oracle's level set for ``--level``.  Every other
handler imports its own modules in its body (``equiv``; ``automorph``;
``analysis``; ``suites``), so an ``eval`` never compiles the deciders, the
automorphisms or the suite runner.

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
     ``ResourceLimit`` (:class:`lexarith.errors.ResourceLimit` lists the
     limits)
  3  model-partiality errors (NonTerminatingQuotient, CoefficientNotRepresentable)
  4  internal errors: any exception that is not a lexarith error (a bug,
     never partiality); the document is ``{"error": "internal", "detail": ...}``
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys

from . import jsonio, oracle, textform
from .errors import CannotProve, InvariantViolation, LexarithError, ResourceLimit
from .model import (
    DEFAULT_DIV_BUDGET,
    Element,
    cmp,
    divmod_floor,
    pow_int,
    root_floor,
    sub,
)


# what argparse reads as a negative number, and so as a positional argument
_NEGATIVE_NUMBER = re.compile(r"-[0-9]+|-[0-9]*\.[0-9]+")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals are lexarith errors, not exits;
    subcommand parsers are of the same class.

    argparse reports a missing argument before an unknown option, so
    ``lexarith eval -t`` would only say that ``expr`` is missing; this
    parser names the unknown option first.  An option before the command
    is judged by the top-level parser, and one there that it does not know
    is reported under its name, as ``lexarith -t eval t`` reports it.
    """

    top = None  # a subcommand's parser: the top-level parser

    def parse_known_args(self, args=None, namespace=None):
        self.strings = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        prog = self.prog
        if message.startswith("the following arguments are required"):
            unknown = self._unknown_options(self.strings)
            if self.top is not None:
                # a subcommand's parser gets the strings after the command
                before = self.top._unknown_options(self.top.strings[: -len(self.strings) - 1])
                if before:
                    prog, unknown = self.top.prog, before + unknown
            if unknown:
                message = f"unrecognized arguments: {' '.join(unknown)}"
        raise InvariantViolation(f"{prog}: {message}")

    def _unknown_options(self, strings: list) -> list:
        return [s for s in itertools.takewhile(lambda s: s != "--", strings) if self._unknown(s)]

    def _unknown(self, s: str) -> bool:
        """Whether argparse takes s for an option that is none of this
        parser's, nor a prefix of one: not a negative number, not a string
        with a space, not a lone dash."""
        if len(s) < 2 or s[0] != "-" or " " in s or _NEGATIVE_NUMBER.fullmatch(s):
            return False
        head = s.partition("=")[0]
        return not any(option.startswith(head) for option in self._option_string_actions)


def _element_doc(e: Element) -> dict:
    return {"element": jsonio.element_to_json(e), "text": textform.format_element(e)}


def _parse(args, text: str) -> Element:
    return textform.parse_element(text, args.dim)


def _index(args) -> int:
    try:
        return int(args.b)
    except ValueError:
        raise InvariantViolation(f"{args.op} needs an integer, got {args.b!r}") from None


def _divmod(a: Element, args) -> dict:
    q, r = divmod_floor(a, _parse(args, args.b), args.budget)
    return {
        "q": jsonio.element_to_json(q),
        "q_text": textform.format_element(q),
        "r": jsonio.element_to_json(r),
        "r_text": textform.format_element(r),
    }


# op -> the document of ``arith op a b`` given the parsed a; the keys, in
# order, are the parser's choices
_ARITH = {
    "add": lambda a, args: _element_doc(a + _parse(args, args.b)),
    "mul": lambda a, args: _element_doc(a * _parse(args, args.b)),
    "sub": lambda a, args: _element_doc(sub(a, _parse(args, args.b))),
    "divmod": _divmod,
    "pow": lambda a, args: _element_doc(pow_int(a, _index(args))),
    "root": lambda a, args: _element_doc(root_floor(a, _index(args), args.budget)),
}

# the kinds of ``seq``, in the parser's order; kind k is analysis.<k>_seq
_SEQ_KINDS = ("e0", "e2", "b11")


def _eval(args) -> tuple:
    return _element_doc(_parse(args, args.expr)), 0


def _cmp(args) -> tuple:
    c = cmp(_parse(args, args.a), _parse(args, args.b))
    return {"cmp": c, "symbol": {-1: "<", 0: "=", 1: ">"}[c]}, 0


def _arith(args) -> tuple:
    return _ARITH[args.op](_parse(args, args.a), args), 0


def _equiv(args) -> tuple:
    from . import equiv

    v = equiv.decide(args.level, _parse(args, args.a), _parse(args, args.b))
    return jsonio.verdict_to_json(v), 0 if v.equivalent else 1


def _auto(args) -> tuple:
    from . import automorph

    a, b = _parse(args, args.src), _parse(args, args.dst)
    try:
        d = automorph.prove_E5(a, b)
    except CannotProve as exc:
        return {"error": "cannot_prove", "detail": str(exc)}, 1
    return jsonio.descriptor_to_json(d), 0


def _apply(args) -> tuple:
    from . import automorph

    with open(args.desc, "r", encoding="utf-8") as fh:
        try:
            desc = jsonio.descriptor_from_json(_load_json(fh), args.dim)
        except RecursionError:
            raise InvariantViolation("descriptor file nests too deeply") from None
    return _element_doc(automorph.apply(desc, _parse(args, args.x))), 0


def _load_json(fh):
    try:
        return json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvariantViolation(f"descriptor file is not UTF-8 JSON: {exc}") from None
    except ValueError:  # an integer with more digits than int() converts
        limit = sys.get_int_max_str_digits()
        raise InvariantViolation(f"descriptor integers must have at most {limit} digits") from None


def _seq(args) -> tuple:
    from . import analysis

    run = getattr(analysis, f"{args.kind}_seq")
    return jsonio.sequence_to_json(run(_parse(args, args.a), args.count, args.direction)), 0


def _embed(args) -> tuple:
    from . import analysis

    result = analysis.real_embed(_parse(args, args.anchor), _parse(args, args.b))
    return jsonio.embed_to_json(result), 0


def _suite(args) -> tuple:
    from . import suites

    results = suites.run_suites(args.name, args.samples, args.seed, args.dim)
    doc = {
        "suites": [suites.result_to_json(r) for r in results],
        "total_violations": sum(len(r.violations) for r in results),
        "samples": args.samples,
        "seed": args.seed,
        "dim": args.dim,
    }
    return doc, 0 if doc["total_violations"] == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="lexarith",
        description="Exact arithmetic and order-automorphism toolkit",
    )
    p.add_argument("--pretty", action="store_true", help="indented JSON output")
    sub_p = p.add_subparsers(dest="command", required=True)

    def command(name, run, summary):
        """A subcommand that returns (json document, exit code) from run(args)."""
        sp = sub_p.add_parser(name, help=summary)
        sp.top = p
        sp.add_argument("--dim", type=int, default=1, choices=(1, 2))
        sp.set_defaults(run=run)
        return sp

    sp = command("eval", _eval, "parse and canonicalize an element")
    sp.add_argument("expr")

    sp = command("cmp", _cmp, "compare two elements")
    sp.add_argument("a")
    sp.add_argument("b")

    sp = command("arith", _arith, "exact arithmetic")
    sp.add_argument("op", choices=tuple(_ARITH))
    sp.add_argument("a")
    sp.add_argument("b", help="element, or a positive integer for pow/root")
    sp.add_argument("--budget", type=int, default=DEFAULT_DIV_BUDGET)

    sp = command("equiv", _equiv, "decide an equivalence level")
    sp.add_argument("--level", type=int, required=True, choices=oracle.LEVELS)
    sp.add_argument("a")
    sp.add_argument("b")

    sp = command("auto", _auto, "build an order-automorphism")
    sp.add_argument("--from", dest="src", required=True)
    sp.add_argument("--to", dest="dst", required=True)

    sp = command("apply", _apply, "apply a descriptor file to an element")
    sp.add_argument("--desc", required=True, help="path to a descriptor JSON file")
    sp.add_argument("x")

    sp = command("seq", _seq, "class sequences")
    sp.add_argument("kind", choices=_SEQ_KINDS)
    sp.add_argument("a")
    sp.add_argument("--count", type=int, default=5)
    sp.add_argument("--direction", choices=("up", "down"), default="up")

    sp = command("embed", _embed, "rational embedding of level-3 classes")
    sp.add_argument("--anchor", required=True)
    sp.add_argument("b")

    sp = command("suite", _suite, "run property suites")
    sp.add_argument("--name", default="all")
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)

    return p


def _emit(obj, pretty: bool) -> None:
    """Write obj as one JSON document; ResourceLimit, with nothing written,
    for an int longer than ``str`` converts."""
    try:
        text = jsonio.dumps_pretty(obj) if pretty else jsonio.dumps(obj)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ResourceLimit(f"an integer of more than {limit} digits is too long to print") from None
    sys.stdout.write(text + "\n")


def main(argv=None) -> int:
    pretty = False
    try:
        args = _build_parser().parse_args(argv)
        pretty = args.pretty
        doc, code = args.run(args)
        _emit(doc, pretty)
        return code
    except SystemExit as exc:  # --help, after printing the help text
        return int(exc.code or 0)
    except LexarithError as exc:
        doc, code = {"error": type(exc).__name__, "detail": str(exc)}, exc.exit_code
    except OSError as exc:
        doc, code = {"error": "io", "detail": str(exc)}, 2
    except Exception as exc:
        doc, code = {"error": "internal", "detail": str(exc)}, 4
    _emit(doc, pretty)
    return code


if __name__ == "__main__":
    sys.exit(main())
