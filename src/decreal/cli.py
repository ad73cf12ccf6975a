"""Command line front end.

Small closed-form expressions over decimal and rational literals are parsed
by recursive descent, evaluated through the hinted digit-by-digit routines
(hints come from the exact rational values tracked alongside), and printed
as digit strings, p-adic digit rows, tape pictures or classifications.

Exit codes: 0 success, 2 malformed input, 3 an exact oracle was needed but
unavailable, 4 a structural invariant or hint was violated.
"""

import argparse
import re
import sys
from fractions import Fraction

from .decimals import (
    Decimal,
    format_decimal,
    parse_decimal,
    render_digits,
    sup_finite,
)
from .errors import DecrealError, ModulusTooLarge, NotPrime, OracleUnavailable, ParseError
from .padic import padic_encode, padic_from_rational, padic_add, padic_mul, padic_neg
from .rational import int_str, parse_rat, str_int
from .shifts import classify_add_shift, classify_mul_shift, graph_type, involution_F
from .weak import Hint, compute_hint, hint_decode, hint_encode, weak_add, weak_mul
from .words import ReadTrace, encode_xr, encode_xs, bin_lsb_encode, render_tape, traced_decimal

# ---------------------------------------------------------------------------
# expression parsing
#
#   expr   := term (('+' | '-') term)*
#   term   := factor ('*' factor)*
#   factor := literal | '(' expr ')' | 'neg(' expr ')' | 'recip(' expr ')'
#
# literals: decimal  [-]digits[.digits][(digits)]   e.g. 2.5, 0.(3), -0.58(3)
#           rational [-]int/posint                  e.g. 22/7, -1/3

_LITERAL = re.compile(r"-?\d+/\d+|-?\d+(?:\.\d*)?(?:\(\d+\))?")
_NATURAL = re.compile(r"^\+?(\d+)$")

# An expression or a literal may start with a minus sign ("-1/3*2",
# "-0.(3)").  argparse takes any argument that starts with "-" for an
# option unless it looks like a negative number, and for every subcommand
# a minus sign followed by a digit always does.  argparse has no public
# setting for that pattern: each subparser's private
# ``_negative_number_matcher`` is set instead, as checked on Python 3.10 to
# 3.13.  The leading-minus tests in tests/test_cli.py catch a Python whose
# argparse works otherwise.
_NEGATIVE_START = re.compile(r"^-\d")

# Deepest expression tree, and deepest bracket nesting, the parser accepts.
# Parsing a bracket, evaluating a node and reading a digit of a sum or
# product all recurse once per level, a product through about five frames;
# past this depth they would exhaust the interpreter's stack instead of
# rejecting the input.
MAX_DEPTH = 100

# Most payload letters (sign, order bits, digits, terminator) of a hint that
# ``decreal hint`` prints: the payload is a 2-adic exponent of about
# 11**letters bits, so five letters spell some 48,000 digits, six 530,000.
MAX_HINT_LETTERS = 5


class _Parser:
    def __init__(self, text):
        self.text = text
        self.i = 0
        self.open = 0  # brackets open at self.i

    def error(self, msg):
        raise ParseError(msg, position=self.i)

    def bounded(self, depth):
        if depth > MAX_DEPTH:
            self.error(f"expression nested deeper than {MAX_DEPTH} levels")
        return depth

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.i] if self.i < len(self.text) else ""

    def eat(self, s):
        self.skip_ws()
        if not self.text.startswith(s, self.i):
            self.error(f"expected {s!r}")
        self.i += len(s)

    def parse(self):
        node, _ = self.expr()
        self.skip_ws()
        if self.i != len(self.text):
            self.error("trailing input")
        return node

    # expr, term and factor return (node, depth of the node)

    def expr(self):
        node, depth = self.term()
        while self.peek() in ("+", "-"):
            op = self.text[self.i]
            self.i += 1
            rhs, rdepth = self.term()
            if op == "-":
                rhs, rdepth = ("neg", rhs), rdepth + 1
            node, depth = ("add", node, rhs), self.bounded(max(depth, rdepth) + 1)
        return node, depth

    def term(self):
        node, depth = self.factor()
        while self.peek() == "*":
            self.i += 1
            rhs, rdepth = self.factor()
            node, depth = ("mul", node, rhs), self.bounded(max(depth, rdepth) + 1)
        return node, depth

    def factor(self):
        self.skip_ws()
        rest = self.text[self.i:]
        if rest.startswith("neg("):
            return self.bracket(4, "neg")
        if rest.startswith("recip("):
            return self.bracket(6, "recip")
        if rest.startswith("("):
            return self.bracket(1, None)
        m = _LITERAL.match(self.text, self.i)
        if not m:
            self.error("expected a literal")
        self.i = m.end()
        tok = m.group()
        if "/" in tok:
            return ("lit", Decimal.from_fraction(parse_rat(tok))), 0
        return ("lit", parse_decimal(tok)), 0

    def bracket(self, opener_len, kind):
        """The expression inside a bracket, wrapped in a ``kind`` node
        unless it is a plain one."""
        self.open = self.bounded(self.open + 1)
        self.i += opener_len
        node, depth = self.expr()
        self.eat(")")
        self.open -= 1
        if kind is None:
            return node, depth
        return (kind, node), self.bounded(depth + 1)


def parse_expression(text):
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# evaluation
#
# Every node carries its exact rational value (literals are exact and the
# operations preserve exactness), which is what feeds the hints; the decimal
# returned for a '+' or '*' node is nevertheless the streamed weak result.


def eval_expression(node, path="certified", root_hint=None, trace=False):
    """Evaluate to (Decimal, Fraction, traces); traces is None unless asked."""
    kind = node[0]
    if kind == "lit":
        return node[1], node[1].value(), None
    if kind == "neg":
        d, v, _ = eval_expression(node[1], path)
        return d.neg(), -v, None
    if kind == "recip":
        d, v, _ = eval_expression(node[1], path)
        if v == 0:
            raise ParseError("reciprocal of zero")
        return Decimal.from_fraction(1 / v), 1 / v, None
    op = kind
    dl, vl, _ = eval_expression(node[1], path)
    dr, vr, _ = eval_expression(node[2], path)
    v = vl + vr if op == "add" else vl * vr
    if root_hint is not None:
        hint = root_hint
    else:
        hint = compute_hint(op, Decimal.from_fraction(vl), Decimal.from_fraction(vr))
    traces = None
    if trace and hint.terminating is None:
        (dl, tl), (dr, tr) = traced_decimal(dl), traced_decimal(dr)
        traces = (tl, tr)
    elif trace:  # a payload reads no digit; it is checked against the exact operands
        traces = (ReadTrace(), ReadTrace())
    f = weak_add(dl, dr, hint) if op == "add" else weak_mul(dl, dr, hint, digit_path=path)
    return f, v, traces


# ---------------------------------------------------------------------------
# subcommands


def cmd_eval(args):
    node = parse_expression(args.expr)
    if args.hint is not None and node[0] not in ("add", "mul"):
        raise ParseError("--hint needs a top-level '+' or '*'")
    root_hint = hint_decode(args.hint) if args.hint is not None else None
    d, _, traces = eval_expression(node, path=args.path,
                                   root_hint=root_hint, trace=args.trace)
    print(render_digits(d, args.digits))
    if traces:
        for name, t in zip(("left", "right"), traces):
            if t.min_index is None:
                print(f"# {name}: no digits read")
            else:
                print(f"# {name}: read {t.total} digits, "
                      f"positions {t.max_index} down to {t.min_index}")
    return 0


def _hint_int(text):
    """``int(text)``, reading digit strings past the int-to-str cap too."""
    digits = text.strip()
    return str_int(digits) if digits.isdecimal() else int(text)


_hint_int.__name__ = "int"  # argparse names the type in its error message


def cmd_padic(args):
    node = parse_expression(args.expr)
    value = _padic_eval(node, args.p)
    order = value.order
    digits = " ".join(str(value.digit(order + i)) for i in range(args.digits))
    print(f"p={args.p} order={order}: {digits}")
    return 0


def _padic_eval(node, p):
    kind = node[0]
    if kind == "lit":
        return padic_from_rational(p, node[1].value())
    if kind == "neg":
        return padic_neg(_padic_eval(node[1], p))
    if kind == "recip":
        raise ParseError("recip is not available in p-adic mode")
    lhs = _padic_eval(node[1], p)
    rhs = _padic_eval(node[2], p)
    return padic_add(lhs, rhs) if kind == "add" else padic_mul(lhs, rhs)


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
    node = parse_expression(args.expr)
    if node[0] not in ("add", "mul"):
        raise ParseError("hint needs a top-level '+' or '*'")
    _, vl, _ = eval_expression(node[1])
    _, vr, _ = eval_expression(node[2])
    h = compute_hint(node[0], Decimal.from_fraction(vl), Decimal.from_fraction(vr))
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
    p.add_argument("--digits", type=int, default=10,
                   help="digits after the point (default 10)")
    p.add_argument("--path", choices=("certified", "paper"), default="certified",
                   help="digit rule for products")
    p.add_argument("--hint", type=_hint_int, default=None,
                   help="integer hint for the top-level operation")
    p.add_argument("--trace", action="store_true",
                   help="report how deep the top-level operands were read")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("padic", help="evaluate an expression in the p-adic integers")
    p.add_argument("p", type=int)
    p.add_argument("expr")
    p.add_argument("--digits", type=int, default=12,
                   help="digits to print, ascending from the order")
    p.set_defaults(fn=cmd_padic)

    p = sub.add_parser("encode", help="print the tape picture of a value")
    p.add_argument("value")
    p.add_argument("--format", choices=("xr", "xs", "xp"), default="xr")
    p.add_argument("--p", type=int, default=3, help="prime for --format xp")
    p.add_argument("--letters", type=int, default=12)
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
    p.add_argument("--digits", type=int, default=10)
    p.set_defaults(fn=cmd_sup)

    p = sub.add_parser("involution", help="apply the digit-pairing involution")
    p.add_argument("value")
    p.add_argument("--digits", type=int, default=10)
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
