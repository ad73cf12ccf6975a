"""Seeded request pools for the four benchmark workloads, and their oracles.

A workload is a fixed mix of request classes, generated in rounds.  The seed
and the round number pick the operands and the order; the number of
requests per class and the ladders of digit counts and depth ranges are
fixed, so every round of every seed asks for about the same amount of work.  Every request carries its exact value, computed here from
the literals alone, so the oracles never trust a number the program made.

Generators reject inputs outside the program's contract: results (and
intermediate results) that terminate, and opposite-sign sums whose operand
magnitudes tie for longer than ``weak_add``'s ``sign_budget``.
"""

import random
import statistics
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("stream-mul", "stream-add", "deep-digit", "padic")

# Denominators coprime to 10, from period 1 (3) up to period 9972 (9973).
DENOMS = (3, 7, 9, 11, 13, 17, 19, 21, 27, 37, 41, 73, 101, 137, 239, 271, 9091, 9973)
PRIMES = (3, 5, 7, 11)


@dataclass(frozen=True)
class Request:
    """One closed-loop request.

    ``kind`` is ``render`` (digits after the point of a decimal expression),
    ``digit`` (one digit at ``position``) or ``padic`` (``digits`` p-adic
    digits from the order upward, for prime ``p``).
    """

    cls: str
    kind: str
    expr: str
    value: Fraction
    digits: int = 0
    position: int = 0
    p: int = 0
    props: dict = field(default_factory=dict, compare=False, hash=False)


# ---------------------------------------------------------------------------
# exact helpers (independent of the package under test)


def ten_free(n):
    for q in (2, 5):
        while n % q == 0:
            n //= q
    return n


def terminates(q):
    return ten_free(q.denominator) == 1


def period(q):
    """Length of the repeating block of q's decimal expansion (0 if none)."""
    m = ten_free(q.denominator)
    if m == 1:
        return 0
    k, r = 1, 10 % m
    while r != 1:
        r = r * 10 % m
        k += 1
    return k


def int_str(n):
    """Decimal spelling of n >= 0 that stays under the int-to-str limit."""
    if n.bit_length() < 12000:
        return str(n)
    half = n.bit_length() * 30103 // 200000
    hi, lo = divmod(n, 10 ** half)
    return int_str(hi) + int_str(lo).rjust(half, "0")


def frac_digits(q, count):
    """The first ``count`` digits after the point of |q|, as a string."""
    num, den = abs(q.numerator), q.denominator
    return int_str(num * 10 ** count // den % 10 ** count).rjust(count, "0")


def digit_at(q, n):
    """Digit of |q| at 10**n.  Below the point it is the next quotient digit
    of the remainder of |q| * 10**(-n-1), which ``pow`` finds mod den."""
    num, den = abs(q.numerator), q.denominator
    if n >= 0:
        return num // (den * 10 ** n) % 10
    return 10 * (num * pow(10, -n - 1, den) % den) // den


def order_of(q):
    """Position of the top digit in the rendering (0 below one)."""
    ip = abs(q.numerator) // q.denominator
    return len(int_str(ip)) - 1 if ip else 0


def render_oracle(q, count):
    """What ``render_digits`` must print for q with ``count`` places."""
    num, den = abs(q.numerator), q.denominator
    ip, fp = divmod(num * 10 ** count // den, 10 ** count)
    sign = "-" if q < 0 else ""
    return f"{sign}{int_str(ip)}.{int_str(fp).rjust(count, '0')}"


def padic_oracle(q, p, count):
    """The first ``count`` p-adic digits of q, from q mod p**count."""
    mod = p ** count
    x = q.numerator * pow(q.denominator, -1, mod) % mod
    out = []
    for _ in range(count):
        x, r = divmod(x, p)
        out.append(r)
    return tuple(out)


def expected(req):
    """The exact output a request must produce."""
    if req.kind == "render":
        return render_oracle(req.value, req.digits)
    if req.kind == "digit":
        return digit_at(req.value, req.position)
    return padic_oracle(req.value, req.p, req.digits)


def magnitude_tie(x, y, limit):
    """Positions scanned before |x| and |y| differ, from the top; None past limit."""
    if abs(x) == abs(y):
        return None
    n = max(order_of(x), order_of(y))
    for steps in range(limit):
        if digit_at(x, n - steps) != digit_at(y, n - steps):
            return steps
    return None


def scan_lengths(x, y, count, tail):
    """Carry (same sign) or borrow (opposite signs) scan length per output digit.

    For each output position after the point, the number of digit pairs
    ``add_digit_rule`` reads below it before one settles the carry (pair sum
    not 9) or the borrow (unequal pair).
    """
    width = count + tail
    dx, dy = frac_digits(x, width), frac_digits(y, width)
    same = (x < 0) == (y < 0)
    run = [0] * (width + 1)
    for i in range(width - 1, -1, -1):
        a, b = int(dx[i]), int(dy[i])
        undecided = a + b == 9 if same else a == b
        run[i] = run[i + 1] + 1 if undecided else 0
    # the digit at place i (1-based) scans pairs i+1, i+2, ... until one settles
    return [run[i] + 1 for i in range(1, count + 1)]


# ---------------------------------------------------------------------------
# operands


def _ladder(lo, hi, count):
    """``count`` sizes spread evenly over [lo, hi].  Every round of every seed
    uses the same ladder, so only the operands change the work."""
    return [int(lo + (hi - lo) * (i + 0.5) / count) for i in range(count)]


def _log_ladder(rng, lo, hi, count):
    """``count`` sizes, one drawn log-uniformly from each of ``count`` equal
    steps of [lo, hi] on a log scale: the same spread in every round, with
    no size repeated from round to round."""
    return [int(lo * (hi / lo) ** ((i + rng.random()) / count)) for i in range(count)]


def decimal_operand(rng, top=10, negative=False, terminating_ok=True, style=None):
    """A literal and its exact value: a ``rational``, a ``repeating`` or a
    ``plain`` decimal.  Unless ``style`` is given, it is drawn 45:45:10."""
    if style is None:
        u = rng.random()
        style = ("rational" if u < 0.45 else
                 "repeating" if u < 0.9 or not terminating_ok else "plain")
    if style == "rational":
        den = rng.choice(DENOMS)
        num = rng.randrange(1, den * top)
        lit, value = f"{num}/{den}", Fraction(num, den)
    elif style == "repeating":
        ip = rng.randrange(top)
        pre = "".join(rng.choice("0123456789") for _ in range(rng.randrange(3)))
        block = "9"
        while set(block) <= {"9"} or set(block) == {"0"}:
            block = "".join(rng.choice("0123456789") for _ in range(rng.choice((1, 2, 3, 6))))
        lit = f"{ip}.{pre}({block})"
        scale = 10 ** len(pre)
        value = Fraction(int(f"{ip}{pre}"), scale) + Fraction(
            int(block), scale * (10 ** len(block) - 1))
    else:
        ip, fp = rng.randrange(1, top), rng.randrange(1, 100)
        lit, value = f"{ip}.{fp:02d}", Fraction(ip * 100 + fp, 100)
        lit = lit.rstrip("0")
    return ("-" + lit, -value) if negative else (lit, value)


def _streams(q):
    return q != 0 and not terminates(q)


# ---------------------------------------------------------------------------
# stream-mul


def _style_mix(rng, requests, factors):
    """Operand styles for ``requests`` products of ``factors`` factors, in
    the 45:45:10 proportion and a seeded order.  The cost of a product
    depends mostly on its operands' styles, so a fixed mix per round keeps
    the work of one round close to the next.  Plain decimals come last in a
    product and never make up all of it, because a product of plain
    decimals, or a prefix of one, always terminates."""
    n = requests * factors
    k = round(n * 0.45)
    mix = ["rational"] * k + ["repeating"] * k + ["plain"] * (n - 2 * k)
    while True:
        rng.shuffle(mix)
        out = [sorted(mix[i:i + factors], key=lambda style: style == "plain")
               for i in range(0, n, factors)]
        if all(set(styles) != {"plain"} for styles in out):
            return out


def _product(rng, factors, top, styles=None):
    styles = styles or [None] * factors
    while True:
        ops = [decimal_operand(rng, top, negative=rng.random() < 0.3, style=style)
               for style in styles]
        acc, ok = ops[0][1], True
        for _, v in ops[1:]:
            acc *= v
            ok = ok and _streams(acc)
        if ok:
            return "*".join(lit for lit, _ in ops), acc, [v for _, v in ops]


def _mul_request(cls, expr, value, operands, digits):
    props = {"factors": len(operands), "digits": digits,
             "periods": [period(v) for v in operands]}
    return Request(cls, "render", expr, value, digits=digits, props=props)


def gen_stream_mul(rng):
    third = Fraction(1, 3)
    pool = [_mul_request("square-third", "0.(3)*0.(3)", third * third, [third, third], 1000)]
    # (class, factors, largest integer part, digit counts)
    for cls, factors, top, sizes in (("pair-1000", 2, 10, [1000]),
                                     ("nest-3", 3, 3, _ladder(400, 500, 3)),
                                     ("nest-4", 4, 2, _ladder(300, 350, 3)),
                                     ("pair-mid", 2, 10, _ladder(150, 300, 40))):
        for digits, styles in zip(sizes, _style_mix(rng, len(sizes), factors)):
            expr, value, ops = _product(rng, factors, top, styles)
            pool.append(_mul_request(cls, expr, value, ops, digits))
    return pool


# ---------------------------------------------------------------------------
# stream-add


def _forced_pair(rng, run, borrow):
    """Two operands whose first ``run`` digit pairs after the point sum to 9
    (carry) or are equal (borrow), then differ in their repeating tails."""
    head = "".join(rng.choice("0123456789") for _ in range(run))
    mate = head if borrow else "".join(str(9 - int(c)) for c in head)
    ip = rng.randrange(5)
    jp = ip if borrow else rng.randrange(5)
    out = []
    for i, (whole, digits) in enumerate(((ip, head), (jp, mate))):
        block = rng.choice(("3", "142857", "81", "076923", "4", "27"))
        if i and borrow:
            block = str(int(block) // 2 + 1)  # the tails must differ
        lit = f"{whole}.{digits}({block})"
        scale = 10 ** run
        value = Fraction(int(f"{whole}{digits}"), scale) + Fraction(
            int(block), scale * (10 ** len(block) - 1))
        out.append((lit, value))
    if borrow:
        out[1] = ("-" + out[1][0], -out[1][1])
    return out


def _sum_expr(terms):
    """Join signed terms with '+' and '-' (a negative term after the first
    becomes a difference)."""
    expr = terms[0][0]
    for lit, _ in terms[1:]:
        expr += "-" + lit[1:] if lit.startswith("-") else "+" + lit
    return expr


def _add_ok(terms, budget):
    acc = terms[0][1]
    for _, v in terms[1:]:
        if (acc < 0) != (v < 0) and magnitude_tie(acc, v, budget) is None:
            return False
        acc += v
        if not _streams(acc):
            return False
    return True


def _add_request(cls, terms, digits, budget):
    value = sum((v for _, v in terms), Fraction(0))
    left = sum((v for _, v in terms[:-1]), Fraction(0))
    scans = scan_lengths(left, terms[-1][1], digits, 1000)
    props = {"terms": len(terms), "digits": digits,
             "periods": [period(v) for _, v in terms],
             "scan_max": max(scans), "scan_mean": statistics.fmean(scans)}
    return Request(cls, "render", _sum_expr(terms), value, digits=digits, props=props)


def gen_stream_add(rng, budget):
    if budget <= 300:
        raise ValueError(f"sign budget {budget} is shorter than the forced borrow runs")
    third, seventh = Fraction(1, 3), Fraction(1, 7)
    pool = [_add_request("third-seventh", [("0.(3)", third), ("0.(142857)", seventh)],
                         3000, budget),
            _add_request("carry-long", _forced_pair(rng, 225, False), 5000, budget)]
    for cls, borrow in (("carry", False), ("borrow", True)):
        for digits, run in zip(_ladder(1000, 2500, 16), reversed(_ladder(30, 150, 16))):
            terms = _forced_pair(rng, run, borrow)
            while not _add_ok(terms, budget):  # a rare pair of tails that terminates
                terms = _forced_pair(rng, run, borrow)
            pool.append(_add_request(cls, terms, digits, budget))
    for k, digits in enumerate(_ladder(1000, 2500, 16)):
        while True:
            terms = [decimal_operand(rng, 10, negative=i > 0 and rng.random() < 0.5,
                                     terminating_ok=False) for i in range(3 + k % 2)]
            if _add_ok(terms, budget):
                break
        pool.append(_add_request("nested", terms, digits, budget))
    return pool


# ---------------------------------------------------------------------------
# deep-digit


def gen_deep_digit(rng, budget):
    pool = []
    for depth in _log_ladder(rng, 1000, 100_000, 30):
        lit, value = "0", Fraction(0)
        while not _streams(value):
            lit, value = decimal_operand(rng, 100, negative=rng.random() < 0.3,
                                         terminating_ok=False)
        pool.append(Request("rational", "digit", lit, value, position=-depth,
                            props={"depth": depth, "periods": [period(value)]}))
    for k, depth in enumerate(_log_ladder(rng, 100, 2000, 30)):
        while True:
            terms = [decimal_operand(rng, 10, negative=i > 0 and rng.random() < 0.5,
                                     terminating_ok=False)
                     for i in range(2 + k % 2)]
            if _add_ok(terms, budget):
                break
        value = sum((v for _, v in terms), Fraction(0))
        pool.append(Request("sum", "digit", _sum_expr(terms), value, position=-depth,
                            props={"depth": depth, "periods": [period(v) for _, v in terms]}))
    for depth in _log_ladder(rng, 100, 2000, 30):
        expr, value, ops = _product(rng, 2, 10)
        pool.append(Request("product", "digit", expr, value, position=-depth,
                            props={"depth": depth, "periods": [period(v) for v in ops]}))
    return pool


# ---------------------------------------------------------------------------
# padic


def padic_operand(rng, p):
    while True:
        den = rng.randrange(1, 1000)
        if den % p:
            break
    num = rng.randrange(1, 1000) * rng.choice((1, -1))
    return f"{num}/{den}", Fraction(num, den)


def _padic_request(rng, cls, p, shape, digits):
    """``shape`` is ``a+b``, ``a+b+c``, ``a*b`` or ``a*b+c``."""
    ops = [padic_operand(rng, p) for _ in range(shape.count("+") + shape.count("*") + 1)]
    lits = iter(lit for lit, _ in ops)
    expr = "".join(next(lits) if c.isalpha() else c for c in shape)
    a = [v for _, v in ops]
    value = a[0] * a[1] if shape.startswith("a*b") else a[0] + a[1]
    if len(a) == 3:
        value += a[2]
    props = {"p": p, "digits": digits, "shape": shape}
    return Request(cls, "padic", expr, value, digits=digits, p=p, props=props)


def gen_padic(rng):
    primes = list(PRIMES) * 10
    rng.shuffle(primes)
    ps = iter(primes)
    pool = [_padic_request(rng, "product-2000", next(ps), "a*b", 2000)]
    for i in range(12):
        pool.append(_padic_request(rng, "sum", next(ps), ("a+b", "a+b+c")[i % 2], 2000))
    for digits in _ladder(700, 900, 16):
        pool.append(_padic_request(rng, "product", next(ps), "a*b", digits))
    for digits in _ladder(700, 900, 8):
        pool.append(_padic_request(rng, "mixed", next(ps), "a*b+c", digits))
    return pool


# ---------------------------------------------------------------------------


def generate(workload, seed, budget, round_no=0):
    """Round ``round_no`` of ``workload``'s requests for ``seed``, in a seeded order.

    Every round has the same mix of classes and sizes with fresh operands.
    ``budget`` is ``weak_add``'s sign budget; opposite-sign sums whose
    magnitudes tie longer than that are rejected.
    """
    rng = random.Random(f"{workload}:{seed}:{round_no}")
    if workload == "stream-mul":
        pool = gen_stream_mul(rng)
    elif workload == "stream-add":
        pool = gen_stream_add(rng, budget)
    elif workload == "deep-digit":
        pool = gen_deep_digit(rng, budget)
    elif workload == "padic":
        pool = gen_padic(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(pool)
    return pool


def describe(pool):
    """Input properties of a pool, per request class."""
    out = {}
    for cls in sorted({r.cls for r in pool}):
        reqs = [r for r in pool if r.cls == cls]
        info = {"requests": len(reqs)}
        for key in ("digits", "depth", "factors", "terms", "scan_max", "scan_mean"):
            vals = [r.props[key] for r in reqs if key in r.props]
            if vals:
                info[key] = [min(vals), statistics.median(vals), max(vals)]
        periods = [x for r in reqs for x in r.props.get("periods", ())]
        if periods:
            info["periods"] = [min(periods), statistics.median(periods), max(periods)]
        primes = sorted({r.p for r in reqs if r.p})
        if primes:
            info["primes"] = primes
        out[cls] = info
    return out
