"""Command line front end.

Argument parsing and printing over ``decreal.expr``: expressions are
parsed and evaluated there, and printed here as digit strings, p-adic digit
rows, tape pictures or classifications.

Exit codes: 0 success, 2 malformed input, 3 an exact oracle was needed but
unavailable, 4 a structural invariant or hint was violated.
"""

import argparse
import re
import sys

from .decimals import parse_decimal, render_digits, sup_finite
from .errors import DecrealError, ModulusTooLarge, NotPrime, OracleUnavailable, ParseError
from .expr import (eval_expression, expression_hint, fixed_depth_misses, padic_eval,
                   parse_expression)
from .padic import padic_encode, padic_from_rational
from .rational import int_str, parse_rat, str_int
from .shifts import classify_add_shift, classify_mul_shift, graph_type, involution_F
from .weak import hint_encode
from .words import encode_xr, encode_xs, bin_lsb_encode, render_tape

# Numbers are spelt with ASCII digits only: ``\d`` and ``int`` would read
# every Unicode decimal digit.
_NATURAL = re.compile(r"^\+?(\d+)$", re.ASCII)

# An expression or a literal may start with a minus sign ("-1/3*2",
# "-0.(3)").  argparse takes any argument that starts with "-" for an
# option unless it looks like a negative number, and for every subcommand
# a minus sign followed by a digit always does.  argparse has no public
# setting for that pattern: each subparser's private
# ``_negative_number_matcher`` is set instead, as checked on Python 3.10 to
# 3.13.  The leading-minus tests in tests/test_cli.py catch a Python whose
# argparse works otherwise.
_NEGATIVE_START = re.compile(r"^-\d", re.ASCII)

# Most payload letters (sign, order bits, digits, terminator) of a hint that
# ``decreal hint`` prints: the payload is a 2-adic exponent of about
# 11**letters bits, so five letters spell some 48,000 digits, six 530,000.
MAX_HINT_LETTERS = 5


def count(text):
    """A ``--digits`` or ``--letters`` value: an integer >= 0, so argparse
    refuses "-3"."""
    n = _int(text)
    if n < 0:
        raise ValueError(f"negative count {n}")
    return n


# ---------------------------------------------------------------------------
# subcommands


def cmd_eval(args):
    node = parse_expression(args.expr)
    d, _, traces = eval_expression(node, root_hint=args.hint, trace=args.trace)
    print(render_digits(d, args.digits))
    if traces:
        for name, t in zip(("left", "right"), traces):
            if t.min_index is None:
                print(f"# {name}: no digits read")
            else:
                print(f"# {name}: read {t.total} digits, "
                      f"positions {t.max_index} down to {t.min_index}")
    if args.path == "paper":
        for i, misses in enumerate(fixed_depth_misses(node, -args.digits), 1):
            if misses:
                print(f"# paper: product {i} misses at "
                      + ", ".join(f"10**{n}" for n in misses), file=sys.stderr)
    return 0


def _int(text):
    """``int(text)`` for ASCII text only, reading digit strings past the
    int-to-str cap too."""
    if not text.isascii():
        raise ValueError(f"not ASCII: {text!r}")
    digits = text.strip()
    return str_int(digits) if digits.isdecimal() else int(text)


_int.__name__ = "int"  # argparse names the type in its error message


def cmd_padic(args):
    value = padic_eval(parse_expression(args.expr), args.p)
    order = value.order
    digits = " ".join(str(value.digit(order + i)) for i in range(args.digits))
    print(f"p={args.p} order={order}: {digits}")
    return 0


def cmd_encode(args):
    if args.as_binary_tape:
        m = _NATURAL.match(args.value.strip())
        if not m:
            raise ParseError(f"not a nonnegative integer: {args.value!r}")
        print(render_tape(bin_lsb_encode(str_int(m.group(1)))))
        return 0
    if args.format == "xp":
        word = padic_encode(padic_from_rational(args.p, parse_rat(args.value)))
    else:
        d = parse_decimal(args.value)
        word = encode_xr(d) if args.format == "xr" else encode_xs(d)
    print(render_tape(word.prefix(args.letters), window=(0, args.letters - 1)))
    return 0


def cmd_classify(args):
    d = parse_decimal(args.constant)
    verdict = classify_add_shift(d) if args.op == "add" else classify_mul_shift(d)
    print(verdict.render())
    if args.graph:
        print(graph_type(args.op, d).value)
    return 0


def cmd_hint(args):
    h = expression_hint(parse_expression(args.expr))
    t = h.terminating
    if t is not None and 2 + len(bin_lsb_encode(t.order)) + len(t.digits) > MAX_HINT_LETTERS:
        raise OracleUnavailable(f"a terminating hint of more than {MAX_HINT_LETTERS} "
                                "payload letters is too large to print")
    print(int_str(hint_encode(h)))
    return 0


def cmd_sup(args):
    elems = [parse_decimal(v) for v in args.values]
    d = sup_finite(elems, domain="real")
    print(render_digits(d, args.digits))
    return 0


def cmd_involution(args):
    d = parse_decimal(args.value)
    print(render_digits(involution_F(d), args.digits))
    return 0


# ---------------------------------------------------------------------------
# wiring


def build_parser():
    ap = argparse.ArgumentParser(
        prog="decreal",
        description="digit-by-digit decimal arithmetic with explicit hints",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression to a digit string")
    p.add_argument("expr")
    p.add_argument("--digits", type=count, default=10,
                   help="digits after the point (default 10)")
    p.add_argument("--path", choices=("certified", "paper"), default="certified",
                   help="paper: also report on stderr where the paper's fixed-depth "
                        "product digits miss the certified ones")
    p.add_argument("--hint", type=_int, default=None,
                   help="integer hint for the top-level operation")
    p.add_argument("--trace", action="store_true",
                   help="report how deep the top-level operands were read")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("padic", help="evaluate an expression in the p-adic integers")
    p.add_argument("p", type=_int)
    p.add_argument("expr")
    p.add_argument("--digits", type=count, default=12,
                   help="digits to print, ascending from the order")
    p.set_defaults(fn=cmd_padic)

    p = sub.add_parser("encode", help="print the tape picture of a value")
    p.add_argument("value")
    p.add_argument("--format", choices=("xr", "xs", "xp"), default="xr")
    p.add_argument("--p", type=_int, default=3, help="prime for --format xp")
    p.add_argument("--letters", type=count, default=12)
    p.add_argument("--as-binary-tape", action="store_true",
                   help="treat VALUE as an integer and print its binary run")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("classify", help="is a shift map letter-computable?")
    p.add_argument("op", choices=("add", "mul"))
    p.add_argument("constant")
    p.add_argument("--graph", action="store_true",
                   help="also print the orbit graph shape")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("hint", help="integer hint for a top-level operation")
    p.add_argument("expr")
    p.set_defaults(fn=cmd_hint)

    p = sub.add_parser("sup", help="least upper bound of finitely many decimals")
    p.add_argument("values", nargs="+")
    p.add_argument("--digits", type=count, default=10)
    p.set_defaults(fn=cmd_sup)

    p = sub.add_parser("involution", help="apply the digit-pairing involution")
    p.add_argument("value")
    p.add_argument("--digits", type=count, default=10)
    p.set_defaults(fn=cmd_involution)

    for p in sub.choices.values():
        p._negative_number_matcher = _NEGATIVE_START
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, NotPrime, ModulusTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ZeroDivisionError:
        print("error: division by zero", file=sys.stderr)
        return 2
    except OracleUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DecrealError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
