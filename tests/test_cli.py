"""End-to-end behaviour of the command-line front end."""

import subprocess
import sys

import pytest

from decreal.cli import main
from decreal.decimals import r_inv
from decreal.errors import ParseError
from decreal.expr import MAX_DEPTH, parse_expression
from decreal.rational import DecFrac
from decreal.weak import Hint, hint_encode


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# expression parsing


def test_parse_expression_shapes():
    node = parse_expression("0.(3) + 0.(6)")
    assert node[0] == "add"
    assert node[1][1].value() + node[2][1].value() == 1
    node = parse_expression("2 * (1 - 0.5)")
    assert node[0] == "mul"
    assert node[2][0] == "add" and node[2][2][0] == "neg"
    node = parse_expression("recip(7)")
    assert node[0] == "recip"


def test_parse_expression_rational_literals():
    node = parse_expression("3/4 + 1")
    assert node[1][1].value() == 0.75


def test_parse_expression_errors_carry_position():
    # a literal's own errors name the literal and carry no position
    for text, message, position in [
        ("1 + ", "expected a literal", 4),
        ("(1", "expected ')'", 2),
        ("1 ** 2", "expected a literal", 3),
        ("1/-2", "trailing input", 1),
        ("(1+2", "expected ')'", 4),
        ("neg(1 ", "expected ')'", 6),
        ("0.5+", "expected a literal", 4),
        (" +1", "expected a literal", 1),
        ("1e3", "trailing input", 1),
        ("", "expected a literal", 0),
        ("1 2", "trailing input", 2),
        ("1.", "dangling decimal point: '1.'", None),
        ("2 * 2..3", "dangling decimal point: '2.'", None),
        ("0.(9)", "a repeating block of nines names a nine-tail word", None),
        ("1 + 1/0", "zero denominator: '1/0'", None),
    ]:
        with pytest.raises(ParseError) as info:
            parse_expression(text)
        assert (str(info.value), info.value.position) == (message, position)


# ---------------------------------------------------------------------------
# eval


def test_eval_terminating_sum(capsys):
    code, out, _ = run(capsys, "eval", "0.(3)+0.(6)", "--digits", "6")
    assert code == 0
    assert out.strip() == "1.000000"


def test_eval_paper_product_of_thirds(capsys):
    code, out, _ = run(capsys, "eval", "0.(3)*0.(3)", "--digits", "10")
    assert code == 0
    assert out.strip() == "0.1111111111"


def test_eval_small_negative_difference(capsys):
    code, out, _ = run(capsys, "eval", "1+neg(1.00001)", "--digits", "6")
    assert code == 0
    assert out.strip() == "-0.000010"


def test_eval_recip(capsys):
    code, out, _ = run(capsys, "eval", "recip(3)", "--digits", "5")
    assert code == 0
    assert out.strip() == "0.33333"


def test_eval_trace_lines(capsys):
    code, out, _ = run(capsys, "eval", "0.6665+0.(3)", "--digits", "3", "--trace")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "0.999"
    assert lines[1].startswith("# left: read ")
    assert "positions" in lines[1] and "down to" in lines[2]


# ``--trace`` lines of certified products: read positions are behaviour, so
# a faster bracket must leave them exactly as they are.  The entries with
# terminating literals were recorded while those had a backing of their own
PINNED_PRODUCT_TRACES = {
    "0.(3)*0.(3)": [
        "# left: read 203 digits, positions 0 down to -202",
        "# right: read 203 digits, positions 0 down to -202",
    ],
    "0.(3)*0.(142857)*1.(6)": [
        "# left: read 204 digits, positions 0 down to -203",
        "# right: read 204 digits, positions 0 down to -203",
    ],
    "2.5*0.(3)": [
        "# left: read 203 digits, positions 0 down to -202",
        "# right: read 203 digits, positions 0 down to -202",
    ],
    "12.5*0.(142857)*0.2(6)": [
        "# left: read 203 digits, positions 0 down to -202",
        "# right: read 203 digits, positions 0 down to -202",
    ],
}


@pytest.mark.parametrize("expr", sorted(PINNED_PRODUCT_TRACES))
def test_eval_trace_lines_pinned_for_products(capsys, expr):
    code, out, _ = run(capsys, "eval", expr, "--digits", "200", "--trace")
    assert code == 0
    assert out.strip().splitlines()[1:] == PINNED_PRODUCT_TRACES[expr]


# longer certified products, recorded before product digits were read from
# one resumable bracket per product stream
PINNED_LONG_PRODUCT_TRACES = {
    ("0.(3)*0.(142857)", "1000"): [
        "# left: read 1003 digits, positions 0 down to -1002",
        "# right: read 1003 digits, positions 0 down to -1002",
    ],
    ("0.(3)*0.(142857)*1.(6)", "400"): [
        "# left: read 403 digits, positions 0 down to -402",
        "# right: read 403 digits, positions 0 down to -402",
    ],
    ("2.(45)*0.(142857)*-1.(6)", "400"): [
        "# left: read 403 digits, positions 0 down to -402",
        "# right: read 403 digits, positions 0 down to -402",
    ],
}


@pytest.mark.parametrize("expr, digits", sorted(PINNED_LONG_PRODUCT_TRACES))
def test_eval_trace_lines_pinned_for_long_products(capsys, expr, digits):
    code, out, _ = run(capsys, "eval", expr, "--digits", digits, "--trace")
    assert code == 0
    assert out.strip().splitlines()[1:] == PINNED_LONG_PRODUCT_TRACES[expr, digits]


# ``--trace`` lines of fixed-depth products, recorded while each of their
# digits started a cold bracket; the left operand is itself a product
PINNED_PAPER_TRACES = {
    "(0.(3)*0.(7))*0.(3)": [
        "# left: read 203 digits, positions 0 down to -202",
        "# right: read 203 digits, positions 0 down to -202",
    ],
    "1/3*0.306000001": [
        "# left: read 203 digits, positions 0 down to -202",
        "# right: read 203 digits, positions 0 down to -202",
    ],
    "12.5*0.(142857)*0.2(6)": [
        "# left: read 203 digits, positions 0 down to -202",
        "# right: read 203 digits, positions 0 down to -202",
    ],
}


@pytest.mark.parametrize("expr", sorted(PINNED_PAPER_TRACES))
def test_eval_trace_lines_pinned_for_paper_products(capsys, expr):
    code, out, _ = run(capsys, "eval", expr, "--digits", "200", "--trace",
                       "--path", "paper")
    assert code == 0
    assert out.strip().splitlines()[1:] == PINNED_PAPER_TRACES[expr]


# ``--trace`` lines of carry sums and borrow differences, recorded before
# rational operands gained their long-division cursor (the entries with
# terminating literals: while those had a backing of their own)
PINNED_SUM_TRACES = {
    "0.(3)+0.(142857)": [
        "# left: read 202 digits, positions 0 down to -201",
        "# right: read 202 digits, positions 0 down to -201",
    ],
    "0.12(3)-0.12(142857)": [
        "# left: read 202 digits, positions 0 down to -201",
        "# right: read 202 digits, positions 0 down to -201",
    ],
    "1.25+0.(142857)": [
        "# left: read 202 digits, positions 0 down to -201",
        "# right: read 202 digits, positions 0 down to -201",
    ],
    "0.(3)-0.125": [
        "# left: read 202 digits, positions 0 down to -201",
        "# right: read 202 digits, positions 0 down to -201",
    ],
}


@pytest.mark.parametrize("expr", sorted(PINNED_SUM_TRACES))
def test_eval_trace_lines_pinned_for_sums(capsys, expr):
    code, out, _ = run(capsys, "eval", expr, "--digits", "200", "--trace")
    assert code == 0
    assert out.strip().splitlines()[1:] == PINNED_SUM_TRACES[expr]


def test_eval_trace_counts_distinct_positions_of_a_negated_operand(capsys):
    # the right operand of a difference is read through its sign flip; each
    # of its 52 positions is counted once
    code, out, _ = run(capsys, "eval", "0.(3)-0.(142857)", "--digits", "50", "--trace")
    assert code == 0
    assert out.strip().splitlines()[1:] == [
        "# left: read 52 digits, positions 0 down to -51",
        "# right: read 52 digits, positions 0 down to -51",
    ]


LONG_THIRD = "0." + "3" * 4200 + "(4)"  # its digits leave 0.(3) at 10**-4201


@pytest.mark.parametrize("trace", [(), ("--trace",)])
def test_eval_trace_changes_no_decision(capsys, trace):
    # a traced operand keeps its exact value, so the sign comparison has no
    # budget under --trace either
    code, out, err = run(capsys, "eval", f"0.(3) + -{LONG_THIRD}", "--digits", "4", *trace)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "-0.0000"


@pytest.mark.parametrize("trace", [(), ("--trace",)])
def test_eval_sign_comparison_out_of_budget_is_exit_3(capsys, trace):
    # 0.(3)*1 is a stream, so the comparison with the long literal stops at
    # its budget: the oracle is unavailable, the hint is not wrong
    code, out, err = run(capsys, "eval", f"0.(3)*1 + -{LONG_THIRD}", "--digits", "4", *trace)
    assert (code, out) == (3, "")
    assert err == "error: the sign of the sum is undecided within the sign budget of 4096 digits\n"


def test_eval_traced_product_reads_exact_operands_in_runs(capsys):
    # the traced views forward runs to the exact operands: the same digits
    # as the untraced call, and one count per distinct position
    args = ("eval", "(1/7*22/9973)*0.(142857)", "--digits", "3000")
    code, plain, _ = run(capsys, *args)
    code, traced, _ = run(capsys, *args, "--trace")
    assert traced.splitlines()[0] == plain.strip()
    assert traced.splitlines()[1:] == [
        "# left: read 3005 digits, positions 0 down to -3004",
        "# right: read 3005 digits, positions 0 down to -3004",
    ]


def test_eval_explicit_hint(capsys):
    code, out, _ = run(capsys, "eval", "0.(3)+0.(3)", "--digits", "4",
                       "--hint", str(hint_encode(Hint(0))))
    assert code == 0
    assert out.strip() == "0.6666"


def test_eval_wrong_hint_is_an_invariant_error(capsys):
    code, _, err = run(capsys, "eval", "0.(3)+0.(3)", "--hint",
                       str(hint_encode(Hint(3))))
    assert code == 4
    assert "error:" in err
    # --hint 1 is order 0; 103.(3) has a zero digit at 10**1 but not at
    # 10**2, which the check up to the operands' order bound reads
    code, out, err = run(capsys, "eval", "100.(3)+3", "--hint", "1")
    assert (code, out, err) == (4, "", "error: nonzero digit above the hinted order\n")


@pytest.mark.parametrize("trace", [(), ("--trace",)])
@pytest.mark.parametrize("expr", ["0.(3)+0.(6)", "0.(3)*3"])
def test_eval_non_terminating_claim_for_a_terminating_result_is_exit_4(capsys, trace, expr):
    # --hint 1 claims order 0 and no payload; the exact result is 1, whose
    # first digit a stream would scan for forever
    code, out, err = run(capsys, "eval", expr, *trace, "--hint", "1")
    assert (code, out) == (4, "")
    assert err == "error: the hint claims a non-terminating result, but the result terminates\n"


def test_eval_wrong_terminating_payload_is_exit_4(capsys):
    # the payload of 0.5 + 0.2 is checked against the exact sum 2/3
    code, hint, _ = run(capsys, "hint", "0.5+0.2")
    code, out, err = run(capsys, "eval", "0.(3)+0.(3)", "--hint", hint.strip())
    assert (code, out, err) == (4, "", "error: the terminating payload is not the exact result\n")


@pytest.mark.parametrize("trace", [(), ("--trace",)])
def test_eval_wrong_payload_over_a_stream_operand_is_exit_4(capsys, trace):
    # 1/7 + 1/7 is a stream with no exact value of its own: the payload of
    # 0.5 + 0.2 is checked against the exact operands 2/7 and 1/3, not
    # printed as 0.7
    code, hint, _ = run(capsys, "hint", "0.5+0.2")
    code, out, err = run(capsys, "eval", "(1/7+1/7)*0.(3)", *trace, "--hint", hint.strip())
    assert (code, out, err) == (4, "", "error: the terminating payload is not the exact result\n")
    # the right payload over a stream operand is the answer
    code, hint, _ = run(capsys, "hint", "(1/3+1/3)*1.5")
    code, out, err = run(capsys, "eval", "(1/3+1/3)*1.5", *trace, "--hint", hint.strip(),
                         "--digits", "3")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "1.000"


def test_eval_terminating_payload_under_trace_is_checked_and_reads_no_digit(capsys):
    code, hint, _ = run(capsys, "hint", "0.5+0.2")
    code, out, err = run(capsys, "eval", "0.(3)+0.(3)", "--trace", "--hint", hint.strip())
    assert (code, out, err) == (4, "", "error: the terminating payload is not the exact result\n")
    code, out, err = run(capsys, "eval", "0.5+0.2", "--trace", "--hint", hint.strip(),
                         "--digits", "3")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["0.700", "# left: no digits read", "# right: no digits read"]


def test_eval_malformed_hint_payload_is_exit_4(capsys):
    # payload letters 10, 10: a terminator before the last letter
    code, out, err = run(capsys, "eval", "0.(3)+0.(3)", "--hint", str(1 << 121))
    assert (code, out, err) == (4, "", "error: stray terminator letter inside the payload\n")


@pytest.mark.parametrize("expr", ["neg(0.(3)+0.(3))", "0.5"])
def test_eval_hint_needs_a_top_level_operation(capsys, expr):
    code, out, err = run(capsys, "eval", expr, "--hint", "7")
    assert (code, out, err) == (2, "", "error: --hint needs a top-level '+' or '*'\n")


def test_eval_hint_reads_integers_of_any_length(capsys):
    # a terminating payload of five letters: a hint of 46,880 digits
    code, hint, _ = run(capsys, "hint", "0.5+0.2")
    assert code == 0 and len(hint.strip()) > 4300
    code, out, _ = run(capsys, "eval", "0.5+0.2", "--hint", hint.strip(), "--digits", "3")
    assert (code, out) == (0, "0.700\n")
    for value in ("-3", "0"):
        code, _, err = run(capsys, "eval", "0.5+0.2", "--hint", value)
        assert (code, err) == (4, "error: a hint travels as a positive integer\n")


def test_eval_hint_far_above_a_product_is_refused_at_once():
    # digits above the operands' order bound need no bracket, so the check
    # of the hinted top digit fails before any power of ten of that size
    proc = subprocess.run(
        [sys.executable, "-m", "decreal.cli", "eval", "0.(3)*0.(3)",
         "--hint", "99999999999999999999"],
        capture_output=True, text=True, timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == "error: zero digit at the hinted (positive) order\n"


@pytest.mark.parametrize("argv", [
    ("eval", "-1/3*2"),
    ("eval", "-1/3*2", "--digits", "4"),
    ("eval", "--digits", "4", "-1/3*2"),
    ("eval", "--digits", "4", "--", "-1/3*2"),
])
def test_eval_expression_may_start_with_a_minus_sign(capsys, argv):
    code, out, err = run(capsys, *argv)
    places = 4 if "--digits" in argv else 10
    assert (code, out, err) == (0, "-0." + "6" * places + "\n", "")


@pytest.mark.parametrize("argv, want", [
    (("sup", "-0.(3)", "-0.4", "--digits", "4"), "-0.3333"),
    (("classify", "add", "-0.(3)"), "Discontinuous at u(1.(3))"),
    (("encode", "-0.(3)", "--letters", "6"), "[-] 0 ξ 0 3 3"),
    (("involution", "-0.(3)", "--digits", "4"), "-3.3333"),
    (("hint", "-0.(3)+1"), "1"),
])
def test_every_subcommand_reads_a_leading_minus(capsys, argv, want):
    # argparse's own pattern takes "-0.4" for a number but "-0.(3)" for an option
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, want + "\n", "")


def test_eval_paper_digit_path(capsys):
    code, out, _ = run(capsys, "eval", "0.(3)*0.(3)", "--digits", "6",
                       "--path", "paper")
    assert code == 0
    assert out.strip() == "0.111111"


def test_eval_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "eval", "1 +")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "eval", "0.(9)")
    assert code == 2


def test_eval_trailing_input_is_a_parse_error(capsys):
    code, out, err = run(capsys, "eval", "1+2)")
    assert (code, out) == (2, "") and err.startswith("error: trailing input")


def test_eval_deep_nesting_is_a_parse_error(capsys):
    # 3000 nested brackets used to exhaust the parser's stack
    code, out, err = run(capsys, "eval", "(" * 3000 + "1" + ")" * 3000)
    assert code == 2 and out == "" and "nested deeper" in err


def test_eval_long_chain_is_a_parse_error(capsys):
    # a left-deep chain parses in a loop but used to exhaust the stack when
    # evaluated
    code, out, err = run(capsys, "eval", "+".join(["1/3"] * 1500))
    assert code == 2 and out == "" and "nested deeper" in err


def test_eval_accepts_the_deepest_allowed_expressions(capsys):
    chain = "+".join(["1/3"] * (MAX_DEPTH + 1))
    code, out, _ = run(capsys, "eval", chain, "--digits", "3")
    scaled = str(1000 * (MAX_DEPTH + 1) // 3)
    assert code == 0 and out.strip() == scaled[:-3] + "." + scaled[-3:]
    # products recurse deepest per level when a digit is read
    nested = "0.(3)*(" * MAX_DEPTH + "1/7" + ")" * MAX_DEPTH
    code, out, _ = run(capsys, "eval", nested, "--digits", "3")
    assert code == 0 and out.strip() == "0.000"
    code, _, _ = run(capsys, "eval", "neg(" + nested + ")")
    assert code == 2


# a literal past the interpreter's int-to-str cap of 4300 digits
LONG = "3" * 4999 + "4"


def test_eval_reads_literals_past_the_int_str_cap(capsys):
    code, out, err = run(capsys, "eval", LONG + "/3", "--digits", "3")
    assert (code, err) == (0, "")
    assert out == "1" * 5000 + ".333\n"


@pytest.mark.parametrize("argv", [
    ("padic", "7", LONG, "--digits", "3"),
    ("encode", LONG, "--as-binary-tape"),
    ("classify", "add", LONG),
    ("sup", LONG, "1", "--digits", "2"),
])
def test_long_literals_are_answered(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out


def test_eval_zero_division_exit_code(capsys):
    code, _, err = run(capsys, "eval", "recip(0)")
    assert code == 2
    code, _, err = run(capsys, "eval", "1/0")
    assert code == 2


# ---------------------------------------------------------------------------
# p-adic mode


def test_padic_one_half(capsys):
    code, out, _ = run(capsys, "padic", "3", "1/2", "--digits", "5")
    assert code == 0
    assert out.strip() == "p=3 order=0: 2 1 1 1 1"


def test_padic_expression(capsys):
    code, out, _ = run(capsys, "padic", "3", "1/2 + 1/2", "--digits", "4")
    assert code == 0
    assert out.strip() == "p=3 order=0: 1 0 0 0"


def test_padic_neg(capsys):
    code, out, _ = run(capsys, "padic", "5", "neg(1)", "--digits", "4")
    assert code == 0
    assert out.strip() == "p=5 order=0: 4 4 4 4"


@pytest.mark.parametrize("argv", [
    ("padic", "7", "-5/9"),
    ("padic", "7", "-5/9", "--digits", "12"),
    ("padic", "--digits", "12", "7", "-5/9"),
    ("padic", "--digits", "12", "--", "7", "-5/9"),
])
def test_padic_expression_may_start_with_a_minus_sign(capsys, argv):
    # -5/9 = 0 - (1/3 + 2/9), spelled without a leading minus
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert (code, out, err) == (0,) + run(capsys, "padic", "7", "0-(1/3+2/9)")[1:]
    assert out == "p=7 order=0: 1 6 3 1 6 3 1 6 3 1 6 3\n"


def test_padic_recip_and_bad_denominator(capsys):
    code, _, err = run(capsys, "padic", "3", "recip(2)")
    assert code == 2
    # refused before its operand is built, which 3 does not divide
    code, out, err = run(capsys, "padic", "3", "recip(1/3)")
    assert (code, out, err) == (2, "", "error: recip is not available in p-adic mode\n")
    code, _, err = run(capsys, "padic", "5", "1/10")
    assert code == 4 and "denominator" in err


@pytest.mark.parametrize("p", ["4", "1", "0", "-3"])
def test_padic_modulus_that_is_not_prime_is_exit_2(capsys, p):
    for argv in (("padic", "--", p, "1+1"), ("padic", "--", p, "1/2"),
                 ("encode", "1/2", "--format", "xp", "--p", p)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {p} is not prime\n"


def test_padic_large_prime_modulus_is_answered(capsys):
    p = 2 ** 61 - 1
    code, out, err = run(capsys, "padic", str(p), "1/2", "--digits", "3")
    assert (code, err) == (0, "")
    assert out == f"p={p} order=0: {(p + 1) // 2} {(p - 1) // 2} {(p - 1) // 2}\n"


def test_padic_modulus_past_the_primality_bound_is_exit_2(capsys):
    p = str(2 ** 89 - 1)
    code, out, err = run(capsys, "padic", p, "1")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot prove {p} prime")


# ---------------------------------------------------------------------------
# encode


def test_encode_binary_tape_sixteen(capsys):
    code, out, _ = run(capsys, "encode", "16", "--as-binary-tape")
    assert code == 0
    assert out.strip() == "eps [0] 0 0 0 1 eps"


@pytest.mark.parametrize("value", ["abc", "2.5", "-5"])
def test_encode_binary_tape_rejects_other_values(capsys, value):
    code, out, err = run(capsys, "encode", "--as-binary-tape", "--", value)
    assert (code, out, err) == (2, "", f"error: not a nonnegative integer: {value!r}\n")


def test_encode_positional(capsys):
    code, out, _ = run(capsys, "encode", "-20.5", "--letters", "7")
    assert code == 0
    assert out.strip() == "[-] 1 ξ 2 0 5 0"


def test_encode_scientific_tiny_constant(capsys):
    code, out, _ = run(capsys, "encode", "0.0000000000000017566",
                       "--format", "xs", "--letters", "12")
    assert code == 0
    assert out.strip() == "[ξ] - 1 1 1 1 ξ 1 7 5 6 6"


def test_encode_padic_word(capsys):
    code, out, _ = run(capsys, "encode", "1/2", "--format", "xp", "--p", "3",
                       "--letters", "6")
    assert code == 0
    assert out.strip() == "[0] ξ 2 1 1 1"


# ---------------------------------------------------------------------------
# classify / hint / sup / involution


def test_classify_add(capsys):
    code, out, _ = run(capsys, "classify", "add", "0.(3)")
    assert code == 0
    assert out.strip() == "Discontinuous at u(0.(6))"
    code, out, _ = run(capsys, "classify", "add", "--", "-2.5")
    assert out.strip() == "Computable"


def test_classify_mul_with_graph(capsys):
    code, out, _ = run(capsys, "classify", "mul", "--graph", "--", "-1")
    assert code == 0
    assert out.splitlines() == ["Discontinuous at u(0)",
                                "one loop plus a continuum of two-cycles"]


def test_hint_command(capsys):
    code, out, _ = run(capsys, "hint", "0.(3)+0.(3)")
    assert code == 0
    assert out.strip() == "1"  # order 0, non-terminating: the odd number 1
    code, out, _ = run(capsys, "hint", "0.(3)*3")
    assert int(out.strip()) == hint_encode(Hint(0, r_inv(DecFrac(1, 0))))


def test_hint_requires_top_level_operation(capsys):
    code, _, err = run(capsys, "hint", "neg(2)")
    assert code == 2


def test_hint_of_a_long_terminating_result_is_refused(capsys):
    # 17 payload letters would need an integer of about 11**17 bits
    code, out, err = run(capsys, "hint", "748-51.01165*69.5489")
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_sup_command(capsys):
    code, out, _ = run(capsys, "sup", "0.4", "0.4999", "0.21", "--digits", "4")
    assert code == 0
    assert out.strip() == "0.4999"


def test_involution_command(capsys):
    code, out, _ = run(capsys, "involution", "3.14159", "--digits", "6")
    assert code == 0
    assert out.strip() == "0.314159"
    code, out, _ = run(capsys, "involution", "--digits", "6", "--", "-0.1")
    assert out.strip() == "-1.000000"


@pytest.mark.parametrize("argv, zero_places", [
    (["eval", "0.(3)"], "0"),
    (["padic", "3", "1/2"], "p=3 order=0: "),
    (["sup", "0.5", "-0.(3)"], "0"),
    (["involution", "0.5"], "5"),
])
def test_a_digit_count_is_a_nonnegative_integer(capsys, argv, zero_places):
    for bad in ("-3", "-1", "x"):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--digits", bad])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert out.err.splitlines()[-1].endswith(
            f"error: argument --digits: invalid count value: '{bad}'")
    assert run(capsys, *argv, "--digits", "0") == (0, zero_places + "\n", "")


def test_a_letter_count_is_a_nonnegative_integer(capsys):
    for bad in ("-3", "-1", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["encode", "0.5", "--letters", bad])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert out.err.splitlines()[-1].endswith(
            f"error: argument --letters: invalid count value: '{bad}'")
    assert run(capsys, "encode", "0.5", "--letters", "0") == (0, "\n", "")


# ---------------------------------------------------------------------------
# console entry point


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "decreal.cli", "eval", "0.(3)+0.(6)", "--digits", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1.0000"
