"""The first n p-adic digits of a rational expression, independent of decreal.

    python tests/padic_oracle.py P EXPR N

prints ``p=P order=0: d0 d1 ...``, as ``decreal padic P EXPR --digits N``
must, for an expression of integers and ``a/b`` literals under ``+``, ``-``,
``*`` and parentheses whose denominators P does not divide.  The digits are
those of ``q mod P**N``, peeled ``P**CHUNK`` at a time, and each chunk a
digit at a time: one digit per ``divmod`` of the whole residue would be
quadratic in N.
"""

import re
import sys
from fractions import Fraction

CHUNK = 1000


def padic_digits(q, p, n, chunk=CHUNK):
    """The first ``n`` digits of the rational q in Z_p, lowest first."""
    m = p ** n
    x = q.numerator * pow(q.denominator, -1, m) % m
    pc = p ** chunk
    digits = []
    while len(digits) < n:
        x, c = divmod(x, pc)
        for _ in range(min(chunk, n - len(digits))):
            c, d = divmod(c, p)
            digits.append(d)
    return digits


def rational(expr):
    """The value of ``expr``, its ``a/b`` literals read as exact fractions."""
    code = re.sub(r"(\d+)/(\d+)", r"Fraction(\1, \2)", expr)
    return Fraction(eval(code, {"__builtins__": {}}, {"Fraction": Fraction}))


def main(argv):
    p, q, n = int(argv[1]), rational(argv[2]), int(argv[3])
    print(f"p={p} order=0: " + " ".join(map(str, padic_digits(q, p, n))))


if __name__ == "__main__":
    main(sys.argv)
