"""A seeded corpus of command-line calls, pinned by one digest per call.

Each call runs ``decreal.cli.main`` in-process.  Its digest covers stdout,
stderr (only its last line, for an argument error) and the exit code.
Each call also carries an oracle check, which knows nothing of how decreal
computes:

* a printed decimal digit agrees with ``Fraction`` long division;
* under ``--path paper``, stderr names, for each product, the positions
  where the fixed-depth rule worked out on exact truncations differs from
  long division;
* a p-adic digit agrees with arithmetic modulo ``p**n``;
* a tape agrees with the layout spelled from the exact value;
* a printed hint decodes to the exact order and payload;
* an ``eval`` call with no ``--hint`` prints the same under the hint that
  ``hint`` prints for its expression;
* a refused call exits with a code its input calls for, and prints nothing
  on stdout; an argument argparse refuses exits 2 and is named.

Run it with ``src`` on the path::

    python tests/corpus.py          # compare with corpus.txt
    python tests/corpus.py --write  # regenerate corpus.txt

``--write`` refuses to pin a call that its oracle rejects.  A change that
alters behaviour on purpose regenerates the file and lists the calls that
changed.  Wrong hints come in the kinds that are refused in bounded time.
A hint that claims a non-terminating result for a terminating one is
refused by ``weak_add`` and ``weak_mul`` from the exact result of operands
with exact values, as every operand of a CLI call has; only over a
producer stream, which no call here builds, does it still make the first
digit scan forever.
"""

import hashlib
import io
import random
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import isqrt
from pathlib import Path

from decreal.cli import main
from decreal.rational import int_str, str_int

CORPUS_FILE = Path(__file__).with_name("corpus.txt")
SEED = 17
XI = "ξ"

# a long literal just below 1/3: the digits of 0.(3) and P first differ
# past the sign comparison's budget of 4,096 positions
P = "0." + "3" * 4200 + "(4)"


# ---------------------------------------------------------------------------
# exact values and their spellings


def literal_value(text):
    """The exact value of a literal ``[-]int[.frac][(block)]`` or ``[-]a/b``."""
    sign = -1 if text.startswith("-") else 1
    text = text.lstrip("-")
    if "/" in text:
        num, den = text.split("/")
        return sign * Fraction(int(num), int(den))
    block = ""
    if "(" in text:
        text, block = text[:-1].split("(")
    ip, _, frac = text.partition(".")
    v = Fraction(int(ip + frac), 10 ** len(frac))
    if block:
        v += Fraction(int(block), 10 ** len(frac) * (10 ** len(block) - 1))
    return sign * v


def order_of(v):
    """The position of the top digit of |v|: 0 below one."""
    a = abs(v)
    return len(str(a.numerator // a.denominator)) - 1


def smooth(n):
    """True when n > 0 has no prime factor but 2 and 5."""
    for p in (2, 5):
        while n % p == 0:
            n //= p
    return n == 1


def terminates(v):
    return smooth(v.denominator)


def bits(n):
    """Binary digits of n >= 0, least significant first."""
    return [str(c) for c in reversed(bin(n)[2:])]


def lead_of(v):
    """The position of the leading nonzero digit of v != 0."""
    lead, a = order_of(v), abs(v)
    if a < 1:
        lead = -1
        while a * 10 ** -lead < 1:
            lead -= 1
    return lead


def render(v, places):
    """``v`` with ``places`` digits after the point, as ``eval`` prints it."""
    a = abs(v)
    text = str(a.numerator * 10 ** places // a.denominator).zfill(order_of(v) + 1 + places)
    return spell(text, places, v < 0)


def spell(text, places, negative):
    head = "-" if negative else ""
    return head + (text if places == 0 else f"{text[:-places]}.{text[-places:]}")


def fixed_depth(a, b, places):
    """``a * b`` as the paper's fixed-depth rule prints it: the digit at n
    is that of the product of the operand truncations at depth
    ``max(1, K - n + 2)``, K the larger operand order."""
    k = max(order_of(a), order_of(b))
    out = []
    for n in range(order_of(a * b), -places - 1, -1):
        depth = max(1, k - n + 2)
        x = abs(a) * 10 ** depth // 1
        y = abs(b) * 10 ** depth // 1
        out.append(str(x * y * Fraction(1, 10) ** (n + 2 * depth) // 1 % 10))
    return spell("".join(out), places, a * b < 0)


def fixed_depth_misses(a, b, places):
    """The positions at which ``fixed_depth(a, b, places)`` differs from
    ``render(a * b, places)``, top down."""
    got, want = (s.lstrip("-").replace(".", "") for s in (fixed_depth(a, b, places),
                                                          render(a * b, places)))
    return [order_of(a * b) - i for i, (g, w) in enumerate(zip(got, want)) if g != w]


def payload(v):
    """The digits of a terminating |v| from its order down to its lowest
    nonzero digit."""
    s = 0
    while (abs(v) * 10 ** s).denominator != 1:
        s += 1
    text = str(int(abs(v) * 10 ** s)).zfill(s + 1)
    return text.rstrip("0") or "0"


def payload_code(v):
    """The code of a terminating v's payload: the decimal integer spelled by
    1, the sign digit (1 for minus) and the payload digits."""
    return int("1" + ("1" if v < 0 else "0") + payload(v))


def honest_hint(v):
    """The hint integer of a result of exact value v: ``2k + 1`` for order
    k, or ``2 * <k, code>`` (Cantor pairing) when v terminates."""
    if not terminates(v):
        return 2 * order_of(v) + 1
    c = payload_code(v)
    s = order_of(v) + c
    return s * (s + 1) + 2 * c


def unpair(z):
    """``(k, c)`` with ``z = <k, c> = (k + c)(k + c + 1)/2 + c``."""
    s = (isqrt(8 * z + 1) - 1) // 2
    c = z - s * (s + 1) // 2
    return s - c, c


# ---------------------------------------------------------------------------
# oracle checks: each takes (code, out, err) and returns an error or None


def refused(codes):
    def check(code, out, err):
        if code not in codes or out or not err.startswith("error: "):
            return f"expected a refusal with exit {codes}, got exit {code}"
    return check


def bad_argument(option):
    """Exit 2 from argparse, naming ``option``, with nothing on stdout."""
    def check(code, out, err):
        if code != 2 or out or f"error: argument {option}: " not in err:
            return f"expected an argument error on {option}, got exit {code}"
    return check


def printed(line_of, refusals=()):
    """Exit 0 with the first stdout line ``line_of()``, or a refusal with
    one of ``refusals``."""
    def check(code, out, err):
        if code in refusals:
            return refused(refusals)(code, out, err)
        if code != 0:
            return f"exit {code}: {err.strip()}"
        first = out.split("\n", 1)[0]
        if first != line_of():
            return f"printed {first[:80]!r}, oracle says {line_of()[:80]!r}"
    return check


def audited(v, places, products=()):
    """``printed`` with the digits of ``v``, and on stderr one line for each
    product ``(a, b)`` (numbered in order from 1) whose fixed-depth digits
    miss."""
    def check(code, out, err):
        problem = printed(lambda: render(v, places))(code, out, err)
        if problem:
            return problem
        want = "".join(f"# paper: product {i} misses at "
                       + ", ".join(f"10**{n}" for n in misses) + "\n"
                       for i, (a, b) in enumerate(products, 1)
                       if (misses := fixed_depth_misses(a, b, places)))
        if err != want:
            return f"stderr {err[:80]!r}, oracle says {want[:80]!r}"
    return check


def tape(letters):
    return " ".join(f"[{c}]" if i == 0 else c for i, c in enumerate(letters))


def check_hint(v, code, out, err):
    if code != 0:
        return f"exit {code}: {err.strip()}"
    x = str_int(out.strip())
    if (x % 2 == 0) != terminates(v):
        return "wrong terminating flag"
    order, c = ((x - 1) // 2, None) if x % 2 else unpair(x // 2)
    if order != order_of(v):
        return "wrong hinted order"
    if c is not None and c != payload_code(v):
        return "wrong payload"


# ---------------------------------------------------------------------------
# generators


def decimal_literal(rng, negative=0.25):
    ip = str(rng.choice([0, 0, 0, 1, 2, 7, 12, 305, 4096]))
    frac = "".join(rng.choice("0123456789") for _ in range(rng.randrange(4)))
    block = ""
    if rng.random() < 0.6:
        block = "".join(rng.choice("0123456789") for _ in range(rng.randrange(1, 4)))
        if set(block) == {"9"}:
            block = "8"
        block = f"({block})"
    text = ip + ("." + frac if frac or block else "") + block
    return ("-" if rng.random() < negative else "") + text


def rational_literal(rng, negative=0.25):
    text = f"{rng.randrange(0, 2000)}/{rng.randrange(1, 200)}"
    return ("-" if rng.random() < negative else "") + text


def literal(rng):
    return rational_literal(rng) if rng.random() < 0.4 else decimal_literal(rng)


def expression(rng, depth, ops="+-*nr", lits=None):
    """(text, value, is a binary operation); value None for 1/0.  The
    value of every literal is appended to ``lits``, if given."""
    if depth == 0 or rng.random() < 0.25:
        text = literal(rng)
        if lits is not None:
            lits.append(literal_value(text))
        return text, literal_value(text), False
    op = rng.choice(ops)
    if op in "nr":
        text, v, _ = expression(rng, depth - 1, ops, lits)
        if v is None or op == "r" and v == 0:
            v = None
        else:
            v = -v if op == "n" else 1 / v
        return f"{'neg' if op == 'n' else 'recip'}({text})", v, False
    (lt, lv, lb), (rt, rv, rb) = (expression(rng, depth - 1, ops, lits) for _ in "lr")
    lt, rt = f"({lt})" if lb else lt, f"({rt})" if rb else rt
    if lv is None or rv is None:
        v = None
    else:
        v = lv + rv if op == "+" else lv - rv if op == "-" else lv * rv
    return f"{lt}{op}{rt}", v, True


def binary_expression(rng, depth, ops="+-*nr"):
    """An expression whose top is a '+' or a '*', with a value."""
    while True:
        text, v, binary = expression(rng, depth, ops)
        if binary and v is not None:
            return text, v


def eval_calls(rng):
    for _ in range(110):  # certified digits
        text, v, _ = expression(rng, rng.randrange(1, 4))
        places = rng.randrange(0, 40)
        argv = ["eval", text, "--digits", str(places)]
        yield argv, refused((2,)) if v is None else printed(lambda v=v, p=places: render(v, p))
    for _ in range(50):  # traced
        text, v = binary_expression(rng, rng.randrange(1, 4))
        places = rng.randrange(0, 30)
        yield (["eval", text, "--digits", str(places), "--trace"],
               printed(lambda v=v, p=places: render(v, p)))
    for _ in range(50):  # the fixed-depth product rule, flat
        a, b = literal(rng), literal(rng)
        va, vb = literal_value(a), literal_value(b)
        places = rng.randrange(0, 30)
        yield (["eval", f"{a}*{b}", "--path", "paper", "--digits", str(places)],
               audited(va * vb, places, [(va, vb)]))
    for _ in range(20):  # sums have no product to audit
        text, v = binary_expression(rng, 2, "+-")
        places = rng.randrange(0, 30)
        yield ["eval", text, "--path", "paper", "--digits", str(places)], audited(v, places)


def hint_calls(rng):
    for _ in range(30):  # honest hints
        text, v = binary_expression(rng, rng.randrange(1, 3))
        places = rng.randrange(0, 20)
        trace = ["--trace"] if rng.random() < 0.3 else []
        yield (["eval", text, "--digits", str(places), "--hint", int_str(honest_hint(v))] + trace,
               printed(lambda v=v, p=places: render(v, p)))
    for i in range(45):  # wrong hints
        text, v = binary_expression(rng, rng.randrange(1, 3))
        kind = i % 5
        if kind == 0 and not terminates(v):  # order too high
            h = 2 * (order_of(v) + rng.randrange(1, 4)) + 1
        elif kind == 1 and not terminates(v) and order_of(v) > 0:  # order too low
            h = 2 * rng.randrange(order_of(v)) + 1
        elif kind == 2:  # an even hint below 2000: a code of two digits at most, no payload
            h = rng.randrange(1, 1000) << 1
        elif kind == 3:
            h = rng.choice([0, -3])
        else:  # a wrong terminating payload (also where the kind does not apply)
            wrong = rng.choice([0, 1, 5])
            if wrong == v:
                wrong += 2
            h = honest_hint(Fraction(wrong))
        trace = ["--trace"] if rng.random() < 0.3 else []
        yield ["eval", text, "--hint", int_str(h) if h > 0 else str(h)] + trace, refused((4,))
    yield ["eval", "0.5", "--hint", "3"], refused((2,))  # no top-level operation
    for _ in range(40):  # decreal hint
        text, v = binary_expression(rng, rng.randrange(1, 3))
        yield ["hint", text], lambda c, o, e, v=v: check_hint(v, c, o, e)
    for text in ("0.5", "neg(1+2)", "recip(0)+1"):
        yield ["hint", text], refused((2,))
    for text, v in (("748-51.01165*69.5489", 748 - Fraction("51.01165") * Fraction("69.5489")),
                    ("0.5+0.2", Fraction(7, 10)), ("2+3", Fraction(5))):
        yield ["hint", text], lambda c, o, e, v=v: check_hint(v, c, o, e)


def padic_calls(rng):
    primes = [2, 3, 5, 7, 11, 13, 97]
    for _ in range(70):
        p = rng.choice(primes)
        lits = []
        text, v, _ = expression(rng, rng.randrange(1, 4), "+-*n", lits)
        n = rng.randrange(1, 40)
        argv = ["padic", str(p), text, "--digits", str(n)]
        if any(q.denominator % p == 0 for q in lits):
            yield argv, refused((4,))
        else:
            yield argv, printed(lambda v=v, p=p, n=n: padic_line(v, p, n))
    yield ["padic", "7", "recip(3)"], refused((2,))
    for p in ("4", "1", "91"):
        yield ["padic", p, "1+1"], refused((2,))


def padic_digits(v, p, n):
    """The first n p-adic digits of v, from v mod p**n."""
    m = p ** n
    x = v.numerator * pow(v.denominator, -1, m) % m
    digits = []
    for _ in range(n):
        x, d = divmod(x, p)
        digits.append(str(d))
    return digits


def padic_line(v, p, n):
    return f"p={p} order=0: " + " ".join(padic_digits(v, p, n))


def xr_letters(v, n):
    a = abs(v)
    head = (["-"] if v < 0 else []) + bits(order_of(v)) + [XI]
    digits = str(a.numerator * 10 ** n // a.denominator).zfill(order_of(v) + 1 + n)
    return (head + list(digits))[:n]


def xs_letters(v, n):
    if v == 0:
        return ([XI, "-"] + ["0"] * n)[:n]
    a, lead = abs(v), lead_of(v)
    head = (["-"] if v < 0 else []) + [XI] + (["-"] if lead < 0 else []) + bits(abs(lead)) + [XI]
    digits = str(a.numerator * 10 ** (n - lead) // a.denominator)
    return (head + list(digits))[:n]


def encode_calls(rng):
    for _ in range(30):
        text = decimal_literal(rng, 0.3)
        n = rng.randrange(1, 24)
        v = literal_value(text)
        yield (["encode", text, "--letters", str(n)],
               printed(lambda v=v, n=n: tape(xr_letters(v, n))))
    for _ in range(25):
        text = rng.choice([decimal_literal(rng, 0.3), "0", "0.000" + str(rng.randrange(1, 99))])
        n = rng.randrange(1, 24)
        v = literal_value(text)
        yield (["encode", text, "--format", "xs", "--letters", str(n)],
               printed(lambda v=v, n=n: tape(xs_letters(v, n))))
    for _ in range(25):
        p = rng.choice([2, 3, 5, 7, 11])
        text = rational_literal(rng, 0.3)
        n = rng.randrange(1, 24)
        v = literal_value(text)
        argv = ["encode", text, "--format", "xp", "--p", str(p), "--letters", str(n)]
        if v.denominator % p == 0:
            yield argv, refused((4,))
        else:
            yield argv, printed(lambda v=v, p=p, n=n: tape((["0", XI] + padic_digits(v, p, n))[:n]))
    for _ in range(10):
        k = rng.choice([0, 1, 2, 16, rng.randrange(1 << 40)])
        yield (["encode", str(k), "--as-binary-tape"],
               printed(lambda k=k: f"eps {tape(bits(k))} eps"))
    for text in ("-5", "2.5", "abc"):
        yield ["encode", text, "--as-binary-tape"], refused((2,))


def classify_line(op, v):
    if op == "add":
        if terminates(v) and v <= 0:
            return None
        return 1 - v if not terminates(v) else -v
    if v < 0:
        return Fraction(0)
    if v == 0 or smooth(v.numerator):
        return None
    return 1 / v


def graph_line(op, v):
    if op == "add":
        return "continuum of loops" if v == 0 else "continuum of disjoint two-way infinite paths"
    return {0: "everything feeds one fixed point", 1: "continuum of loops",
            -1: "one loop plus a continuum of two-cycles"}.get(
        v, "one loop plus a continuum of two-way infinite paths")


def check_classify(op, v, graph, code, out, err):
    if code != 0:
        return f"exit {code}: {err.strip()}"
    lines = out.splitlines()
    witness = classify_line(op, v)
    if witness is None:
        if lines[0] != "Computable":
            return f"expected Computable, got {lines[0]!r}"
    elif not (lines[0].startswith("Discontinuous at u(") and
              literal_value(lines[0][len("Discontinuous at u("):-1]) == witness):
        return f"wrong witness {lines[0]!r}"
    if graph and lines[1] != graph_line(op, v):
        return f"wrong graph {lines[1]!r}"


def shift_calls(rng):
    for _ in range(45):
        op = rng.choice(["add", "mul"])
        text = rng.choice([decimal_literal(rng, 0.4), "0", "1", "-1", "0.5", "-0.25", "2.5"])
        graph = rng.random() < 0.5
        v = literal_value(text)
        yield (["classify", op, text] + (["--graph"] if graph else []),
               lambda c, o, e, op=op, v=v, g=graph: check_classify(op, v, g, c, o, e))
    for _ in range(45):
        values = [decimal_literal(rng, 0.5) for _ in range(rng.randrange(1, 5))]
        places = rng.randrange(0, 25)
        yield (["sup"] + values + ["--digits", str(places)],
               printed(lambda vs=values, p=places: render(max(map(literal_value, vs)), p)))
    for _ in range(45):
        text = rng.choice([decimal_literal(rng, 0.3), "0"])
        places = rng.randrange(0, 25)
        yield (["involution", text, "--digits", str(places)],
               printed(lambda v=literal_value(text), p=places: render(involution(v), p)))


def involution(v):
    if v == 0:
        return v
    return v * 10 if lead_of(v) % 2 else v / 10


def pinned_calls():
    """Calls written out by hand: known refusals and long sign scans."""
    third = Fraction(1, 3)
    p = literal_value(P)
    for trace in ([], ["--trace"]):
        yield (["eval", f"0.(3) + -{P}", "--digits", "4"] + trace,
               printed(lambda: render(third - p, 4), refusals=(4,)))
        yield (["eval", f"0.(3)*1 + -{P}", "--digits", "4"] + trace,
               printed(lambda: render(third - p, 4), refusals=(4,)))
    q = Fraction(22, 49 * 9973)
    for trace in ([], ["--trace"]):
        yield (["eval", "(1/7*22/9973)*0.(142857)", "--digits", "2000"] + trace,
               printed(lambda: render(q, 2000)))
    # the fixed-depth digit of the product misses at 10**1
    a, b = Fraction(-902, 9973), Fraction(-776, 7)
    yield ["eval", "(-902/9973*-776/7)+1", "--path", "paper"], audited(a * b + 1, 10, [(a, b)])
    yield (["eval", "-902/9973*-776/7", "--path", "paper", "--digits", "4"],
           audited(a * b, 4, [(a, b)]))
    yield ["eval", "1 +", "--digits", "3"], refused((2,))
    yield ["eval", "0.(3)+0.(3)", "--hint", int_str(honest_hint(Fraction(1)))], refused((4,))
    # a non-terminating claim for the terminating sum 1
    for trace in ([], ["--trace"]):
        yield ["eval", "0.(3)+0.(6)", "--hint", "1"] + trace, refused((4,))
    # a digit count is an integer >= 0
    for argv in (["eval", "0.(3)"], ["padic", "3", "1/2"], ["sup", "0.5", "-0.(3)"],
                 ["involution", "0.5"]):
        yield argv + ["--digits", "-3"], bad_argument("--digits")
    yield ["eval", "0.(3)", "--digits", "0"], printed(lambda: "0")
    yield ["padic", "3", "1/2", "--digits", "0"], printed(lambda: "p=3 order=0: ")
    yield ["encode", "0.5", "--letters", "-3"], bad_argument("--letters")
    # literal edge cases and parse errors
    for text in ("1.", "2..3", "0.(9)", "1/0", "1/-2", "(1+2", "neg(1", "0.5+", "+1", "1e3",
                 "", "recip(0)"):
        yield ["eval", text], refused((2,))
    for text, v in ((" 0.5 + 1/3 ", Fraction(1, 2) + third), ("-0/5*0.(3)", Fraction(0)),
                    ("007.50(0)*0.(3)", Fraction(15, 2) * third),
                    ("0.(3) * 0.(09)", third * Fraction(1, 11))):
        yield ["eval", text], printed(lambda v=v: render(v, 10))
    # numbers are spelt with ASCII digits: Arabic-Indic digits are refused
    for argv in (["eval", "0.(٩)"], ["eval", "١/٣"], ["padic", "3", "١/٢"],
                 ["encode", "١٢", "--as-binary-tape"]):
        yield argv, refused((2,))
    for argv, option in ((["padic", "٣", "1/2"], "p"), (["eval", "1/3", "--digits", "٣"], "--digits"),
                         (["eval", "1/3+1/3", "--hint", "٣"], "--hint"),
                         (["encode", "1/2", "--format", "xp", "--p", "٣"], "--p")):
        yield argv, bad_argument(option)


def calls(seed=SEED):
    """Every corpus call as ``(argv, check)``, in file order."""
    rng = random.Random(seed)
    out = list(pinned_calls())
    for gen in (eval_calls, hint_calls, padic_calls, encode_calls, shift_calls):
        out.extend(gen(rng))
    return out


# ---------------------------------------------------------------------------
# running and pinning


def run(argv):
    """``(code, stdout, stderr)`` of one in-process call.  An argument
    error keeps only the last line of its stderr: argparse wraps the usage
    lines above it to the width of the terminal."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code, err = exc.code, io.StringIO(err.getvalue().splitlines()[-1])
    return code, out.getvalue(), err.getvalue()


def digest(code, out, err):
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()[:16]


def label(argv):
    """The call's arguments, with any longer than 60 characters shortened."""
    return shlex.join(a if len(a) <= 60 else f"{a[:20]}...<{len(a)} chars>...{a[-12:]}"
                      for a in argv)


def read_corpus(path=CORPUS_FILE):
    """``[(digest, label)]`` from the committed file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [tuple(line.split(" ", 1)) for line in lines if line and not line.startswith("#")]


def changed(pinned, committed):
    """The labels of the calls whose digest or label differs from the file."""
    return [lab for (d, lab), (d0, lab0) in zip(pinned, committed) if (d, lab) != (d0, lab0)]


def rehinted(argv, result):
    """For an ``eval X`` call with no ``--hint`` that succeeded, a problem
    if ``hint X`` fails on a top-level '+' or '*', or if the call under
    ``--hint "$(hint X)"`` does not print its ``result`` again."""
    if argv[0] != "eval" or "--hint" in argv or result[0] != 0:
        return None
    code, hint, err = run(["hint", argv[1]])
    if code == 2:  # no top-level '+' or '*'
        return None
    if code != 0:
        return f"hint: exit {code}: {err.strip()}"
    if run([*argv, "--hint", hint.strip()]) != result:
        return "prints otherwise under its own hint"


def replay(seed=SEED):
    """``(pinned, problems)``: the ``(digest, label)`` of every call, and
    one message per call its oracle, or its rerun under its own hint
    (``rehinted``), rejects."""
    pinned, problems = [], []
    for argv, check in calls(seed):
        code, out, err = run(argv)
        pinned.append((digest(code, out, err), label(argv)))
        problem = check(code, out, err) or rehinted(argv, (code, out, err))
        if problem:
            problems.append(f"{label(argv)}: {problem}")
    return pinned, problems


def main_corpus(args):
    pinned, problems = replay()
    if problems:
        print("\n".join(problems))
        return 1
    if "--write" in args:
        header = ("# decreal CLI corpus: one line per call, the first 16 hex digits of\n"
                  "# sha256(exit code, stdout, stderr), then the call.  Regenerate with\n"
                  "# `python tests/corpus.py --write` (src on the path).\n")
        CORPUS_FILE.write_text(header + "".join(f"{d} {lab}\n" for d, lab in pinned),
                               encoding="utf-8")
        print(f"wrote {len(pinned)} calls to {CORPUS_FILE}")
        return 0
    committed = read_corpus()
    diff = changed(pinned, committed)
    print("\n".join(diff) or f"all {len(pinned)} calls match")
    return 1 if diff or len(pinned) != len(committed) else 0


if __name__ == "__main__":
    sys.exit(main_corpus(sys.argv[1:]))
