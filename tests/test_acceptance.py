"""Acceptance gate: one end-to-end test per shipped guarantee.

Every test prints a single summary line (visible under ``pytest -rP``) and
enforces its own wall-clock budget.  Oracles are implemented inline from
scratch -- long division for decimal digits, big-integer modular arithmetic
for the p-adic digits -- so the package is never asked to grade itself.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from decreal.cli import main
from decreal.decimals import (
    Decimal,
    Verdict,
    bar,
    bar_inv,
    check_separation,
    compare,
    compare_extended,
    parse_decimal,
    r_inv,
    SEARCHED,
    sup_finite,
    truncate,
)
from decreal.errors import ZeroShift
from decreal.expr import eval_expression, parse_expression
from decreal.padic import PAdic, padic_add, padic_mul, traced_padic
from decreal.rational import DecFrac, approx_recip, ten_smooth
from decreal.shifts import (
    add_shift_conjugate,
    classify_add_shift,
    classify_mul_shift,
    continuity_probe,
    involution_F,
    make_add_shift,
    make_mul_shift,
)
from decreal.weak import (
    Hint,
    compute_hint,
    mul_certified_digit,
    mul_stabilized_digit,
    weak_add,
    weak_mul,
)
from decreal.words import bin_lsb_encode, encode_xr, encode_xs, traced_decimal

FINDINGS = Path(__file__).resolve().parents[1] / "findings" / "stabilized-digit.json"


def oracle_digit(q, n):
    """Digit of |q| at 10**n by plain integer long division."""
    num, den = abs(q.numerator), q.denominator
    if n <= 0:
        return (num * 10 ** (-n)) // den % 10
    return num // (den * 10 ** n) % 10


def sign_of(q):
    return 1 if q > 0 else -1 if q < 0 else 0


def assert_digits_match(d, q, down_to):
    if q != 0:
        assert d.sign == sign_of(q)
    for n in range(max(d.order, 0), down_to - 1, -1):
        assert d.digit(n) == oracle_digit(q, n), (q, n)


def rand_fraction(rng, num_max, den_max):
    return Fraction(rng.randint(-num_max, num_max), rng.randint(1, den_max))


def weak_of(op, dx, vx, dy, vy):
    """Apply a streaming op; the hint comes from the tracked exact values."""
    hint = compute_hint(op, Decimal.from_fraction(vx), Decimal.from_fraction(vy))
    if op == "add":
        return weak_add(dx, dy, hint), vx + vy
    return weak_mul(dx, dy, hint), vx * vy


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# 1. worked examples, exact string matches


def test_criterion_01_exact_example_suite(capsys):
    t0 = time.perf_counter()

    code, out = run_cli(capsys, "eval", "0.(3)+0.(6)", "--digits", "6")
    assert (code, out.strip()) == (0, "1.000000")
    d, _, _ = eval_expression(parse_expression("0.(3)+0.(6)"))
    assert d.has_exact_value and d.value() == 1

    code, out = run_cli(capsys, "eval", "0.(3)*3", "--digits", "6")
    assert (code, out.strip()) == (0, "1.000000")
    d, _, _ = eval_expression(parse_expression("0.(3)*3"))
    assert d.has_exact_value and d.value() == 1

    code, out = run_cli(capsys, "eval", "1+neg(1.00001)", "--digits", "6")
    assert (code, out.strip()) == (0, "-0.000010")
    d, _, _ = eval_expression(parse_expression("1+neg(1.00001)"))
    assert d.value() == Fraction(-1, 100000)

    code, out = run_cli(capsys, "involution", "3.14159", "--digits", "6")
    assert (code, out.strip()) == (0, "0.314159")
    assert involution_F(parse_decimal("3.14159")).value() == Fraction(314159, 10 ** 6)
    code, out = run_cli(capsys, "involution", "--digits", "6", "--", "-0.1")
    assert (code, out.strip()) == (0, "-1.000000")
    assert involution_F(parse_decimal("-0.1")).value() == -1

    word = encode_xs(parse_decimal("0.0000000000000017566"))
    assert " ".join(word.prefix(12)) == "ξ - 1 1 1 1 ξ 1 7 5 6 6"

    assert " ".join(bin_lsb_encode(16)) == "0 0 0 0 1"
    code, out = run_cli(capsys, "encode", "16", "--as-binary-tape")
    assert (code, out.strip()) == (0, "eps [0] 0 0 0 1 eps")

    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"criterion 1 PASS: exact example suite (6 checks) in {dt:.2f}s")


# ---------------------------------------------------------------------------
# 2. streamed digits against a long-division oracle


def test_criterion_02_weak_ops_match_long_division_oracle():
    t0 = time.perf_counter()
    rng = random.Random(202)
    pairs = digits_checked = 0
    while pairs < 1000:
        qu = rand_fraction(rng, 10 ** 6, 10 ** 6)
        qv = rand_fraction(rng, 10 ** 6, 10 ** 6)
        du, dv = Decimal.from_fraction(qu), Decimal.from_fraction(qv)

        s, qs = weak_of("add", du, qu, dv, qv)
        assert_digits_match(s, qs, -30)
        p, qp = weak_of("mul", du, qu, dv, qv)
        assert_digits_match(p, qp, -30)

        digits_checked += (max(s.order, 0) + 31) + (max(p.order, 0) + 31)
        pairs += 1
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(f"criterion 2 PASS: {pairs} pairs, {digits_checked} digits, "
          f"100% oracle agreement in {dt:.2f}s")


# ---------------------------------------------------------------------------
# 3. field axioms, exact and digit by digit


def test_criterion_03_field_axioms_exact_and_digitwise():
    t0 = time.perf_counter()
    rng = random.Random(303)
    triples = 0
    while triples < 300:
        qa = rand_fraction(rng, 999, 999)
        qb = rand_fraction(rng, 999, 999)
        qc = rand_fraction(rng, 999, 999)
        if qa == qb or qc == 0 or qa == 0:
            continue
        a, b, c = (Decimal.from_fraction(q) for q in (qa, qb, qc))

        # exact layer: the rational backing really is a field
        assert (qa + qb) + qc == qa + (qb + qc)
        assert (qa * qb) * qc == qa * (qb * qc)
        assert qa * (qb + qc) == qa * qb + qa * qc
        assert qa + 0 == qa and qa * 1 == qa
        assert qa + (-qa) == 0 and qa * (1 / qa) == 1

        # streamed layer: the same identities, digit by digit to 20 places
        ab, vab = weak_of("add", a, qa, b, qb)
        bc, vbc = weak_of("add", b, qb, c, qc)
        lhs, vl = weak_of("add", ab, vab, c, qc)
        rhs, vr = weak_of("add", a, qa, bc, vbc)
        assert vl == vr
        assert_digits_match(lhs, vl, -20)
        assert_digits_match(rhs, vl, -20)

        ba, _ = weak_of("add", b, qb, a, qa)
        assert_digits_match(ba, vab, -20)

        mab, vmab = weak_of("mul", a, qa, b, qb)
        mbc, vmbc = weak_of("mul", b, qb, c, qc)
        mlhs, vml = weak_of("mul", mab, vmab, c, qc)
        mrhs, vmr = weak_of("mul", a, qa, mbc, vmbc)
        assert vml == vmr
        assert_digits_match(mlhs, vml, -20)
        assert_digits_match(mrhs, vml, -20)

        mba, _ = weak_of("mul", b, qb, a, qa)
        assert_digits_match(mba, vmab, -20)

        dl, vdl = weak_of("mul", a, qa, bc, vbc)
        dr1, vdr1 = weak_of("mul", a, qa, c, qc)
        dr, vdr = weak_of("add", mab, vmab, dr1, vdr1)
        assert vdl == vdr
        assert_digits_match(dl, vdl, -20)
        assert_digits_match(dr, vdl, -20)

        neutral_a, _ = weak_of("add", a, qa, Decimal.zero(), Fraction(0))
        assert_digits_match(neutral_a, qa, -20)
        unit_a, _ = weak_of("mul", a, qa, Decimal.from_fraction(Fraction(1)), Fraction(1))
        assert_digits_match(unit_a, qa, -20)
        vanish, _ = weak_of("add", a, qa, a.neg(), -qa)
        assert_digits_match(vanish, Fraction(0), -20)
        one, _ = weak_of("mul", a, qa, Decimal.from_fraction(1 / qa), 1 / qa)
        assert_digits_match(one, Fraction(1), -20)

        # order axioms: x < y stays < under +z, and under *z for z > 0
        (x, qx), (y, qy) = sorted(((a, qa), (b, qb)), key=lambda t: t[1])
        sx, _ = weak_of("add", x, qx, c, qc)
        sy, _ = weak_of("add", y, qy, c, qc)
        assert compare(sx, sy).verdict is Verdict.LESS
        z, qz = Decimal.from_fraction(abs(qc)), abs(qc)
        px, _ = weak_of("mul", x, qx, z, qz)
        py, _ = weak_of("mul", y, qy, z, qz)
        assert compare(px, py).verdict is Verdict.LESS

        triples += 1
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(f"criterion 3 PASS: field and order axioms on {triples} triples, "
          f"exact + 20-digit streams, in {dt:.2f}s")


# ---------------------------------------------------------------------------
# 4. certified digits are always right; the fixed-depth rule is graded


def test_criterion_04_certified_digits_exact_fixed_depth_rate_reported():
    t0 = time.perf_counter()
    rng = random.Random(404)
    samples = 1000
    agree = 0
    mismatches = []
    for _ in range(samples):
        while True:
            qu = Fraction(rng.randint(1, 10 ** 5), rng.randint(1, 10 ** 5))
            qv = Fraction(rng.randint(1, 10 ** 5), rng.randint(1, 10 ** 5))
            qp = qu * qv
            if not ten_smooth(qp.denominator):
                break
        du, dv = Decimal.from_fraction(qu), Decimal.from_fraction(qv)
        n = rng.randint(-12, max(du.order, dv.order) + 1)
        truth = oracle_digit(qp, n)
        assert mul_certified_digit(du, dv, n) == truth  # hard: 100% required
        stab = mul_stabilized_digit(du, dv, n)
        if stab == truth:
            agree += 1
        else:
            mismatches.append({"u": str(qu), "v": str(qv), "position": n,
                               "fixed_depth_digit": stab, "true_digit": truth})

    # a hand-built witness that the fixed-depth rule can miss: the product
    # 1/3 * 0.306000001 = 0.102000000333... stabilizes its 10**-3 digit only
    # around depth 10, past the fixed depth max(1, K - n + 2) = 5
    u = Decimal.from_fraction(Fraction(1, 3))
    v = parse_decimal("0.306000001")
    qp = Fraction(1, 3) * Fraction(306000001, 10 ** 9)
    assert oracle_digit(qp, -3) == 2
    assert mul_certified_digit(u, v, -3) == 2
    assert mul_stabilized_digit(u, v, -3) == 1

    rate = agree / samples
    FINDINGS.parent.mkdir(exist_ok=True)
    FINDINGS.write_text(json.dumps({
        "what": "agreement of the fixed-depth product digit rule with the true digit",
        "source": "tests/test_acceptance.py, seeded run (seed 404)",
        "samples": samples,
        "agreements": agree,
        "rate": rate,
        "constructed_counterexample": {
            "u": "1/3", "v": "0.306000001", "position": -3,
            "fixed_depth_digit": 1, "certified_digit": 2, "true_digit": 2,
            "note": "product 0.102000000333...; the 10**-3 digit settles near "
                    "truncation depth 10, beyond the fixed depth 5",
        },
        "mismatch_count": len(mismatches),
        "mismatches": mismatches[:40],
    }, indent=2) + "\n")

    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(f"criterion 4 PASS: certified digits {samples}/{samples} exact; "
          f"fixed-depth rule agreed {agree}/{samples} = {rate:.1%} "
          f"(soft metric, see findings/stabilized-digit.json) in {dt:.2f}s")


# ---------------------------------------------------------------------------
# 5. p-adic arithmetic against a modular oracle, plus locality


def test_criterion_05_padic_ops_match_modular_oracle_with_locality():
    t0 = time.perf_counter()
    rng = random.Random(505)
    width = 60
    digit_samples = 0
    for p in (2, 3, 5, 7):
        mod = p ** width
        for _ in range(25):
            xs = [rng.randrange(p) for _ in range(width + 10)]
            ys = [rng.randrange(p) for _ in range(width + 10)]
            X = sum(d * p ** i for i, d in enumerate(xs[:width]))
            Y = sum(d * p ** i for i, d in enumerate(ys[:width]))
            for op, value in (("add", (X + Y) % mod), ("mul", (X * Y) % mod)):
                a, tra = traced_padic(PAdic(p, 0, lambda n, ds=xs: ds[n] if 0 <= n < len(ds) else 0))
                b, trb = traced_padic(PAdic(p, 0, lambda n, ds=ys: ds[n] if 0 <= n < len(ds) else 0))
                out = padic_add(a, b) if op == "add" else padic_mul(a, b)
                rest = value
                for n in range(width):
                    rest, want = divmod(rest, p)
                    assert out.digit(n) == want, (p, op, n)
                    assert tra.max_index <= n and trb.max_index <= n
                    digit_samples += 1
    assert digit_samples >= 10 ** 4
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(f"criterion 5 PASS: p in (2,3,5,7), {digit_samples} digits vs the "
          f"modular oracle, locality held everywhere, in {dt:.2f}s")


# ---------------------------------------------------------------------------
# 6. one output letter can force arbitrarily deep reads


def test_criterion_06_unit_letter_forces_unbounded_lookahead():
    t0 = time.perf_counter()
    third = parse_decimal("0.(3)")
    prev_depth = 0
    for r in (5, 10, 20, 40):
        x = parse_decimal("0." + "6" * (r - 1) + "5")
        from decreal.weak import result_letter
        letter, trace_x, _ = result_letter("add", encode_xr(x), encode_xr(third),
                                           2, Hint(0))
        assert letter == "0"
        depth = trace_x.max_index - 2  # letters 0..1 are the order bits and ξ
        assert depth >= r
        assert depth > prev_depth
        prev_depth = depth
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"criterion 6 PASS: unit letter read depth grew 5/10/20/40 -> "
          f"{prev_depth} in {dt:.2f}s")


# ---------------------------------------------------------------------------
# 7. shift classification with probe cross-checks


def rand_nonterminating_point(rng):
    while True:
        q = Fraction(rng.randint(-2000, 2000),
                     rng.randint(1, 400) * rng.choice((3, 7, 11, 13)))
        if q != 0 and not ten_smooth(q.denominator):
            return Decimal.from_fraction(q)


def test_criterion_07_shift_classification_and_probes():
    t0 = time.perf_counter()
    F = Fraction
    table = [
        # constant, add computable, add witness, mul computable, mul witness
        (F(-1), True, None, False, F(0)),
        (F(0), True, None, True, None),
        (F(1), False, F(-1), True, None),
        (F(1, 3), False, F(2, 3), True, None),
        (F(3), False, F(-3), False, F(1, 3)),
        (F(-1, 3), False, F(4, 3), False, F(0)),
        (F(2), False, F(-2), True, None),
        (F(1, 4), False, F(-1, 4), True, None),
    ]
    rng = random.Random(707)
    probes = 0
    for q, add_ok, add_w, mul_ok, mul_w in table:
        d = Decimal.from_fraction(q)
        for classify, make, ok, wit in ((classify_add_shift, make_add_shift, add_ok, add_w),
                                        (classify_mul_shift, make_mul_shift, mul_ok, mul_w)):
            verdict = classify(d)
            assert verdict.computable is ok, (q, classify.__name__)
            shift = make(d)
            if ok:
                assert verdict.witness is None
                for _ in range(20):
                    report = continuity_probe(shift, rand_nonterminating_point(rng), k=5)
                    assert report.found and report.n0_found <= 60
                    probes += 1
            else:
                assert verdict.witness.value() == wit
                report = continuity_probe(shift, verdict.witness, k=3)
                assert not report.found
                probes += 1
    dt = time.perf_counter() - t0
    assert dt < 30.0
    print(f"criterion 7 PASS: 16 classifications, {probes} probes "
          f"(found at k=5 on sampled points, not found at k=3 on witnesses) "
          f"in {dt:.2f}s")


# ---------------------------------------------------------------------------
# 8. conjugation and the digit-pairing involution


def test_criterion_08_conjugation_and_involution_identities():
    t0 = time.perf_counter()
    rng = random.Random(808)

    for _ in range(500):
        qd = rand_fraction(rng, 10 ** 4, 10 ** 4)
        if qd == 0:
            continue
        qe = rand_fraction(rng, 10 ** 4, 10 ** 4)
        out = add_shift_conjugate(Decimal.from_fraction(qd), Decimal.from_fraction(qe))
        assert out.value() == qe - 1
    with pytest.raises(ZeroShift):
        add_shift_conjugate(Decimal.zero(), Decimal.from_fraction(Fraction(1)))

    assert involution_F(Decimal.zero()).value() == 0
    for _ in range(500):
        q = rand_fraction(rng, 10 ** 5, 10 ** 4)
        if q == 0:
            continue
        d = Decimal.from_fraction(q)
        f = involution_F(d)
        g = involution_F(f)
        assert abs(f.leading_index() - d.leading_index()) == 1
        assert g.value() == q
        for n in range(max(d.order, 0), -101, -1):
            assert g.digit(n) == d.digit(n)

    for _ in range(20):
        d = rand_nonterminating_point(rng)
        # a traced view keeps an exact value, so trace a stream of its digits
        stream = Decimal.from_stream(d.sign, d.order, d.digit, SEARCHED)
        td, trace = traced_decimal(stream)
        g = involution_F(td, leading=d.leading_index())
        for n in range(g.order, -21, -1):
            g.digit(n)
        assert trace.min_index >= -21
        assert trace.max_index <= g.order + 1

    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(f"criterion 8 PASS: 500 conjugations landed on e-1, involution "
          f"squared to the identity over 100 digits, locality stayed within "
          f"one position, in {dt:.2f}s")


# ---------------------------------------------------------------------------
# 9. reciprocal approximation bound, exact


def test_criterion_09_reciprocal_approximation_bound():
    t0 = time.perf_counter()
    rng = random.Random(909)
    checked = 0
    while checked < 1000:
        a = rand_fraction(rng, 10 ** 6, 10 ** 6)
        if a == 0:
            continue
        k = rng.randint(1, 10 ** 6)
        b = approx_recip(a, k)
        assert abs(a * b.to_fraction() - 1) * k < 1
        checked += 1
    dt = time.perf_counter() - t0
    assert dt < 5.0
    print(f"criterion 9 PASS: |a*b - 1| < 1/k exactly on {checked} random "
          f"(a, k) with k up to 10^6 in {dt:.2f}s")


# ---------------------------------------------------------------------------
# 10. nine-tail twins, suprema, separation witnesses


def rand_terminating(rng):
    mant = rng.randint(1, 10 ** 6) * rng.choice((1, -1))
    return r_inv(DecFrac(mant, rng.randint(-6, 2)))


def test_criterion_10_twins_suprema_and_separation():
    t0 = time.perf_counter()
    rng = random.Random(1010)

    # round trips, including the order drop at powers of ten
    for _ in range(200):
        t = rand_terminating(rng)
        assert bar_inv(bar(t)) == t
    ten = r_inv(DecFrac(1, 1))
    b10 = bar(ten)
    assert ten.order == 1 and b10.order == 0
    assert [b10.digit(n) for n in (0, -1, -2)] == [9, 9, 9]
    assert bar_inv(b10) == ten

    # suprema agree with a pairwise-comparison oracle
    grid = [Fraction(n, d) for n in range(-50, 51) for d in (1, 2, 4, 5, 8)]
    for _ in range(200):
        items = []
        for _ in range(rng.randint(1, 6)):
            q = rng.choice(grid)
            if rng.random() < 0.3 and q != 0:
                items.append(bar(r_inv(DecFrac(q.numerator * 10 // q.denominator, -1))))
            elif rng.random() < 0.2:
                items.append(Decimal.from_fraction(q + Fraction(1, 3)))
            else:
                items.append(Decimal.from_fraction(q))
        best = items[0]
        for e in items[1:]:
            if compare_extended(best, e).verdict is Verdict.LESS:
                best = e
        s = sup_finite(items)
        assert compare_extended(s, best).verdict is Verdict.EQUAL

    # twin pairs: equal value, strictly ordered words, nothing in between
    # (the nine-tail word sits below its twin, mirrored for negative signs)
    for _ in range(50):
        t = rand_terminating(rng)
        d = Decimal.from_term(t)
        f = bar(t)
        assert f.value() == d.value()
        lo, hi = (f, d) if t.sign > 0 else (d, f)
        assert compare_extended(lo, hi).verdict is Verdict.LESS
        v = d.value()
        candidates = [Decimal.from_fraction(v + Fraction(s, 10 ** j))
                      for j in range(1, 7) for s in (-1, 1)]
        candidates += [truncate(d, 3), Decimal.from_term(t)]
        for e in candidates:
            above_lo = compare_extended(lo, e).verdict is Verdict.LESS
            below_hi = compare_extended(e, hi).verdict is Verdict.LESS
            assert not (above_lo and below_hi)

    # comparison witnesses check out exactly
    validated = 0
    while validated < 100:
        qx = rand_fraction(rng, 10 ** 4, 10 ** 4)
        qy = rand_fraction(rng, 10 ** 4, 10 ** 4)
        if qx == qy:
            continue
        x, y = Decimal.from_fraction(qx), Decimal.from_fraction(qy)
        c = compare(x, y)
        assert c.verdict is (Verdict.LESS if qx < qy else Verdict.GREATER)
        lo, hi = (x, y) if qx < qy else (y, x)
        assert check_separation(lo, hi, c.witness)
        validated += 1

    dt = time.perf_counter() - t0
    assert dt < 5.0
    print(f"criterion 10 PASS: twin round trips, 200 suprema vs the pairwise "
          f"oracle, gap property, {validated} separation witnesses, in {dt:.2f}s")
