"""Expressions over decimal and rational literals, parsed by recursive descent
into tuple trees (``("lit", Decimal)``, ``("neg", x)``, ``("recip", x)``,
``("add", x, y)``, ``("mul", x, y)``) and evaluated through the hinted
digit-by-digit routines or in the p-adic integers of a prime.
"""

import re
from fractions import Fraction

from .decimals import Decimal, pair_order
from .errors import ParseError
from .padic import padic_add, padic_from_rational, padic_mul, padic_neg
from .rational import LITERAL, digit_bytes, ilog10, literal_pair, pair_fold, pow10
from .weak import (ProductBracket, add_stream, hint_decode, mul_stream, pair_hint,
                   refuse_terminating, weak_add, weak_mul)
from .words import traced_decimal

# ---------------------------------------------------------------------------
# expression parsing
#
#   expr   := term (('+' | '-') term)*
#   term   := factor ('*' factor)*
#   factor := literal | '(' expr ')' | 'neg(' expr ')' | 'recip(' expr ')'
#
# literals: decimal  [-]digits[.digits][(digits)]   e.g. 2.5, 0.(3), -0.58(3)
#           rational [-]int/posint                  e.g. 22/7, -1/3
# (``rational.LITERAL``, whose '+' sign the expression language leaves out)

_SPACE = re.compile(r"\s*")

# Deepest expression tree, and deepest bracket nesting, the parser accepts.
# Parsing a bracket, evaluating a node and reading a digit of a sum or
# product all recurse once per level, a product through about five frames;
# past this depth they would exhaust the interpreter's stack instead of
# rejecting the input.
MAX_DEPTH = 100


class _Parser:
    """Recursive descent over ``text``, matching in place at index ``self.i``."""

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
        """Move to the next non-space character, and return its index."""
        i = self.i
        if self.text[i:i + 1].isspace():
            i = self.i = _SPACE.match(self.text, i).end()
        return i

    def eat(self, s):
        if not self.text.startswith(s, self.skip_ws()):
            self.error(f"expected {s!r}")
        self.i += len(s)

    def parse(self):
        node, _ = self.expr()
        if self.skip_ws() != len(self.text):
            self.error("trailing input")
        return node

    # expr, term and factor return (node, depth of the node)

    def expr(self):
        node, depth = self.term()
        while True:  # the next character, tested in place: term skipped the spaces
            op = self.text[self.i:self.i + 1]
            if op != "+" and op != "-":
                return node, depth
            self.i += 1
            rhs, rdepth = self.term()
            if op == "-":
                rhs, rdepth = ("neg", rhs), rdepth + 1
            node, depth = ("add", node, rhs), self.bounded(max(depth, rdepth) + 1)

    def term(self):
        node, depth = self.factor()
        text = self.text
        while True:  # the next character, tested in place
            i = self.i
            if text[i:i + 1].isspace():
                i = self.i = _SPACE.match(text, i).end()
            if not text.startswith("*", i):
                return node, depth
            self.i = i + 1
            rhs, rdepth = self.factor()
            node, depth = ("mul", node, rhs), self.bounded(max(depth, rdepth) + 1)

    def factor(self):
        text, i = self.text, self.i
        if text[i:i + 1].isspace():
            i = self.i = _SPACE.match(text, i).end()
        m = LITERAL.match(text, i)
        if m and m[1] != "+":
            self.i = m.end()
            return ("lit", Decimal.from_pair(*literal_pair(m.groups(), m[0]))), 0
        if text.startswith("neg(", i):
            return self.bracket(4, "neg")
        if text.startswith("recip(", i):
            return self.bracket(6, "recip")
        if text.startswith("(", i):
            return self.bracket(1, None)
        self.error("expected a literal")

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
# Every node carries its exact value as a reduced integer pair ``(num, den)``,
# ``den > 0``, folded with one ``gcd`` per operation (``rational.pair_fold``);
# it feeds the hints.  The decimal returned for a '+' or '*' node is
# nevertheless the streamed weak result.


def _fold(node):
    """The exact value of ``node`` as a reduced pair, folded from its
    literals with no ``Decimal`` built."""
    kind = node[0]
    if kind == "lit":
        d = node[1]
        return d.sign * d.num, d.den
    if kind == "neg":
        num, den = _fold(node[1])
        return -num, den
    if kind == "recip":
        num, den = _fold(node[1])
        if num == 0:
            raise ParseError("reciprocal of zero")
        return (den, num) if num > 0 else (-den, -num)
    return pair_fold(kind, *_fold(node[1]), *_fold(node[2]))


def value_of(node):
    """The exact value of ``node`` as a ``Fraction``, folded from its
    literals with no ``Decimal`` built."""
    return Fraction(*_fold(node))


def eval_expression(node, root_hint=None, trace=False):
    """Evaluate to (Decimal, Fraction, traces); traces is None unless asked.

    ``root_hint``, a hint's integer encoding (as ``--hint`` takes it),
    replaces the computed hint of the top-level operation, which must then
    be a '+' or a '*'.  A payload is checked on the exact operands, and a
    hint that claims a non-terminating result for a terminating ``v``
    raises ``HintMismatch``.  A ``recip`` builds no stream below it.  The
    one ``Fraction`` built is the value returned.
    """
    if root_hint is not None:
        if node[0] not in ("add", "mul"):
            raise ParseError("--hint needs a top-level '+' or '*'")
        root_hint = hint_decode(root_hint)
    d, num, den, traces = _evaluate(node, root_hint, trace)
    return d, Fraction(num, den), traces


def _evaluate(node, root_hint=None, trace=False):
    """``eval_expression`` with the exact value as a reduced pair:
    ``(Decimal, num, den, traces)``."""
    kind = node[0]
    if kind == "lit":
        d = node[1]
        return d, d.sign * d.num, d.den, None
    if kind == "neg":
        d, num, den, _ = _evaluate(node[1])
        return d.neg(), -num, den, None
    if kind == "recip":
        num, den = _fold(node)
        return Decimal.from_pair(num, den), num, den, None
    dl, lnum, lden, _ = _evaluate(node[1])
    dr, rnum, rden, _ = _evaluate(node[2])
    num, den = pair_fold(kind, lnum, lden, rnum, rden)
    hint = root_hint or pair_hint(num, den)
    if root_hint and hint.terminating is not None:  # checked on the exact operands
        dl, dr = Decimal.from_pair(lnum, lden), Decimal.from_pair(rnum, rden)
    elif root_hint:  # a terminating result's first digit would scan forever
        refuse_terminating(den)
    traces = None
    if trace:  # traced views keep the exact values, so they change no decision
        (dl, tl), (dr, tr) = traced_decimal(dl), traced_decimal(dr)
        traces = (tl, tr)
    if hint.terminating is not None:
        f = weak_add(dl, dr, hint) if kind == "add" else weak_mul(dl, dr, hint)
    else:  # pair_hint or refuse_terminating has shown that the result does not terminate
        f = add_stream(dl, dr, hint) if kind == "add" else mul_stream(dl, dr, hint)
    return f, num, den, traces


def expression_hint(node):
    """The hint of the top-level '+' or '*' of ``node``, computed from the
    exact values of its operands."""
    if node[0] not in ("add", "mul"):
        raise ParseError("hint needs a top-level '+' or '*'")
    return pair_hint(*_fold(node))


def fixed_depth_misses(node, lo):
    """Where the paper's fixed-depth rule misses, for each '*' of ``node``
    outside a ``recip``, operands first: ``product_misses`` of its exact
    operands, from the product's order down to 10**lo."""
    if node[0] in ("lit", "recip"):
        return []
    audits = [misses for child in node[1:] for misses in fixed_depth_misses(child, lo)]
    if node[0] == "mul":
        x, y = (Decimal.from_pair(*_fold(child)) for child in node[1:])
        audits.append(_misses(x, y, pair_order(x.num * y.num, x.den * y.den), lo))
    return audits


def product_misses(u, v, hi, lo):
    """The positions from 10**hi down to 10**lo, top down, at which the
    fixed-depth digit of ``|u*v|`` (``mul_stabilized_digit``) is not the
    exact one, for ``Fraction``s u and v."""
    return _misses(Decimal.from_fraction(u), Decimal.from_fraction(v), hi, lo)


def _misses(x, y, hi, lo):
    """``product_misses`` of the exact decimals x and y.

    Below the point it misses where a cold bracket's ``G < 0`` (see
    ``weak._exact_split``), which, with ``l`` the cold depth, ``K`` the
    larger operand order and ``M = A*r_y + C*r_x``, is ``10**l * (M -
    r_P*10**(K+2)) > r_x*r_y``; once ``10**l > B*D > r_x*r_y`` it is
    ``M > r_P*10**(K+2)``.  Each remainder takes one step per position,
    so the walk is linear.  The positions at or above the point are read
    off one cold bracket moved down a position at a time: the cold depth
    grows by at most one per position, so each move leaves the split of a
    cold start."""
    a, b, c, d = x.num, x.den, y.num, y.den
    misses, point = [], max(lo, 0)
    if hi >= point:
        exact = digit_bytes(a * c // (b * d) % pow10(hi + 1), hi + 1)
        bracket = ProductBracket(x, y, hi)
        for n in range(hi, point - 1, -1):
            bracket.move(n)
            if bracket.digit != exact[hi - n]:
                misses.append(n)
    s, k, top = b * d, max(x.order, y.order), min(hi, -1)
    l, wide, small = k - top + 2, pow10(k + 2), ilog10(s)
    rx, ry, rp = a * pow(10, l, b) % b, c * pow(10, l, d) % d, a * c * pow(10, -top, s) % s
    for n in range(top, lo - 1, -1):
        gap = a * ry + c * rx - rp * wide
        if gap > 0 and (l > small or gap * pow10(l) > rx * ry):
            misses.append(n)
        rx, ry, rp, l = rx * 10 % b, ry * 10 % d, rp * 10 % s, l + 1
    return misses


def padic_eval(node, p):
    """The value of ``node`` in the p-adic integers; ``recip`` is refused
    before its operand is built."""
    kind = node[0]
    if kind == "lit":
        return padic_from_rational(p, node[1].value())
    if kind == "neg":
        return padic_neg(padic_eval(node[1], p))
    if kind == "recip":
        raise ParseError("recip is not available in p-adic mode")
    lhs = padic_eval(node[1], p)
    rhs = padic_eval(node[2], p)
    return padic_add(lhs, rhs) if kind == "add" else padic_mul(lhs, rhs)
