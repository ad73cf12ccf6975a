#!/usr/bin/env bash
# The long-input gates: whole CLI calls on inputs long enough that a
# quadratic path or a missing run would blow its timeout, each checked
# against an exact oracle.  The CI workflow runs this file; from a checkout,
#
#     bash tests/gates.sh
#
# runs the same gates.  Each gate prints its name, and the first that fails
# stops the script with a nonzero exit.  Temporary files go to $RUNNER_TEMP,
# or to a fresh directory when it is not set.  When no `decreal` command is
# installed, a shim that runs `python -m decreal.cli` over this checkout's
# src/ goes first on PATH.
set -eo pipefail

cd "$(dirname "$0")/.."
current= scratch=
finish() {
  local status=$?
  if [ "$status" != 0 ]; then
    echo "gate failed: $current" >&2
  fi
  if [ -n "$scratch" ]; then
    rm -rf "$scratch"
  fi
}
trap finish EXIT
if [ -z "${RUNNER_TEMP:-}" ]; then
  RUNNER_TEMP=$(mktemp -d)
  scratch=$RUNNER_TEMP
fi
if ! command -v decreal > /dev/null; then
  export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"
  mkdir -p "$RUNNER_TEMP/bin"
  printf '#!/bin/sh\nexec python -m decreal.cli "$@"\n' > "$RUNNER_TEMP/bin/decreal"
  chmod +x "$RUNNER_TEMP/bin/decreal"
  PATH="$RUNNER_TEMP/bin:$PATH"
fi

gate() {
  current=$1
  echo "gate: $1"
}

gate "Sequential product digits stay linear per digit"
(
out=$(timeout 10 decreal eval "0.(3)*0.(3)" --digits 8000)
test "$out" = "$(python -c 'print("0." + "1" * 8000)')"
)

gate "A run of product digits is read as one block"
(
out=$(timeout 5 decreal eval "0.(3)*0.(3)" --digits 32000)
test "$out" = "$(python -c 'print("0." + "1" * 32000)')"
)

gate "A hinted order far above a product fails at once"
(
code=0
timeout 5 decreal eval "0.(3)*0.(3)" --hint 99999999999999999999 || code=$?
test "$code" = 4
)

gate "A hinted order below a nonzero digit is refused"
(
code=0
timeout 5 decreal eval "100.(3)+3" --hint 1 || code=$?
test "$code" = 4
)

gate "A wrong terminating payload over exact operands is refused"
(
h=$(decreal hint "0.5+0.2")
code=0
timeout 5 decreal eval "0.(3)+0.(3)" --hint "$h" || code=$?
test "$code" = 4
)

gate "A wrong terminating payload is refused under --trace too"
(
h=$(decreal hint "0.5+0.2")
code=0
timeout 5 decreal eval "0.(3)+0.(3)" --trace --hint "$h" || code=$?
test "$code" = 4
)

gate "A wrong terminating payload over a stream operand is refused"
(
h=$(decreal hint "0.5+0.2")
for trace in "" --trace; do
  code=0
  timeout 5 decreal eval "(1/7+1/7)*0.(3)" $trace --hint "$h" || code=$?
  test "$code" = 4
done
)

gate "A library hint with no payload over exact operands of a terminating result is refused"
(
timeout 5 python -c '
from decreal.decimals import parse_decimal
from decreal.errors import HintMismatch
from decreal.weak import Hint, weak_add, weak_mul
x = parse_decimal("0.(3)")
for op, y in ((weak_add, "0.(6)"), (weak_mul, "3")):
    try:
        op(x, parse_decimal(y), Hint(0, None)).digit(0)
    except HintMismatch:
        continue
    raise SystemExit(f"{op.__name__}: no HintMismatch")
'
code=0
timeout 5 decreal eval "0.(3)+0.(6)" --hint 1 || code=$?
test "$code" = 4
)

gate "Every subcommand reads a value with a leading minus"
(
test "$(decreal sup "-0.(3)" -0.4 --digits 4)" = "-0.3333"
)

gate "A long signed literal reads back exactly"
(
N=$(python -c 'print("9" + "1234567890" * 499 + "123456789")')
M=$(python -c 'print("8" + "0123456789" * 499 + "987654321")')
# -(int + extra) / den, with 30 places, as eval prints it
oracle='
import sys
from fractions import Fraction
getattr(sys, "set_int_max_str_digits", lambda n: None)(0)
q = -(int(sys.argv[1]) + Fraction(sys.argv[2])) / int(sys.argv[3])
text = str(abs(q.numerator) * 10 ** 30 // q.denominator).zfill(31)
print("-" + text[:-30] + "." + text[-30:])
'
out=$(timeout 5 decreal eval "-$N/7*1" --digits 30)
test "$out" = "$(python -c "$oracle" "$N" 0 7)"
out=$(timeout 5 decreal eval "-$M.(3)+0" --digits 30)
test "$out" = "$(python -c "$oracle" "$M" 1/3 1)"
)

gate "A negative letter count is an argument error"
(
code=0
decreal encode 0.5 --letters -3 > "$RUNNER_TEMP/letters.txt" 2>/dev/null || code=$?
test "$code" = 2
test ! -s "$RUNNER_TEMP/letters.txt"
)

gate "Nested products over exact operands read their digits directly"
(
out=$(timeout 10 decreal eval "(1/7*22/9973)*0.(142857)" --digits 20000)
test "$out" = "$(python -c '
from fractions import Fraction
q, n = Fraction(22, 49 * 9973), 20000
r, digits = q.numerator, []
for _ in range(n):
    d, r = divmod(10 * r, q.denominator)
    digits.append(str(d))
print("0." + "".join(digits))
')"
)

gate "Tracing changes no decision"
(
P="0.$(python -c 'print("3" * 4200)')(4)"
plain=$(timeout 5 decreal eval "0.(3) + -$P" --digits 4)
traced=$(timeout 5 decreal eval "0.(3) + -$P" --digits 4 --trace)
test "$plain" = "-0.0000"
test "$(echo "$traced" | head -n 1)" = "$plain"
)

gate "A 50,000-digit carry run and borrow run settle in runs"
(
carry=$(python -c 'print("0." + "1" * 50000 + "(3)+0." + "8" * 50000 + "(7)")')
borrow=$(python -c 'print("0." + "5" * 50000 + "(3)-0." + "5" * 50000 + "(2)")')
test "$(timeout 5 decreal eval "$carry" --digits 4)" = "1.0000"
test "$(timeout 5 decreal eval "$borrow" --digits 4)" = "0.0000"
)

gate "A 50,000-digit nine run below a gap of one is scanned in runs"
(
x=$(python -c 'print("0.1" + "9" * 50000 + "(3)+-0.2")')
test "$(timeout 5 decreal eval "$x" --digits 4)" = "-0.0000"
)

gate "Traced operands are read in runs"
(
plain=$(timeout 10 decreal eval "(1/7*22/9973)*0.(142857)" --digits 20000)
traced=$(timeout 5 decreal eval "(1/7*22/9973)*0.(142857)" --digits 20000 --trace)
test "$(echo "$traced" | head -n 1)" = "$plain"
)

gate "A long nested sum memoises its digits densely"
(
out=$(timeout 5 decreal eval "(0.(3)+0.(142857))+0.(81)" --digits 200000)
test "$out" = "$(python -c '
from fractions import Fraction
q, n = Fraction(1, 3) + Fraction(1, 7) + Fraction(81, 99), 200000
ip, r = divmod(q.numerator, q.denominator)
digits = []
for _ in range(n):
    d, r = divmod(10 * r, q.denominator)
    digits.append(str(d))
print(f"{ip}." + "".join(digits))
')"
traced=$(timeout 5 decreal eval "(0.(3)+0.(142857))+0.(81)" --digits 200000 --trace)
test "$(echo "$traced" | head -n 1)" = "$out"
test "$(echo "$traced" | tail -n 2)" = "# left: read 200002 digits, positions 0 down to -200001
# right: read 200002 digits, positions 0 down to -200001"
)

gate "Fixed-depth product digits resume one bracket"
(
out=$(timeout 10 decreal eval "0.(3)*0.(3)" --path paper --digits 20000)
test "$out" = "$(python -c 'print("0." + "1" * 20000)')"
)

gate "Sequential p-adic product digits stay linear per digit"
(
out=$(timeout 5 decreal padic 7 "1/3*-2/9" --digits 20000)
test "$out" = "$(python tests/padic_oracle.py 7 "1/3*-2/9" 20000)"
)

gate "p-adic product runs match the modular oracle at a small and a large prime"
(
for args in "2 -517/913 311/97 20000" "2305843009213693951 1/3 -2/9 2000"; do
  set -- $args
  out=$(timeout 10 decreal padic "$1" "$2*$3" --digits "$4")
  test "$out" = "$(python tests/padic_oracle.py "$1" "$2*$3" "$4")"
done
)

gate "Nested p-adic sums and products stream in runs"
(
set -f  # the expressions hold '*'
for args in "3 1/7*-5/11+2/13 50000" "11 0-(1/3*2/9) 20000" \
            "2305843009213693951 1/3+-2/9*5/7 2000"; do
  set -- $args
  out=$(timeout 10 decreal padic "$1" "$2" --digits "$3")
  test "$out" = "$(python tests/padic_oracle.py "$@")"
done
)

gate "A p-adic product of sums hands its runs on as integers"
(
for p in 3 11; do
  out=$(timeout 5 decreal padic "$p" "(1/7+-5/13)*(2/17+3/19)" --digits 100000)
  test "$out" = "$(python tests/padic_oracle.py "$p" "(1/7+-5/13)*(2/17+3/19)" 100000)"
done
)

gate "p-adic subtraction negates digitwise, with no product stream"
(
timeout 5 decreal padic 7 "0-(1/3+2/9)" --digits 100000 > "$RUNNER_TEMP/neg.txt"
decreal padic --digits 100000 -- 7 -5/9 > "$RUNNER_TEMP/lit.txt"
cmp "$RUNNER_TEMP/neg.txt" "$RUNNER_TEMP/lit.txt"
)

gate "Primality of a large modulus is decided at once"
(
timeout 5 decreal padic 2305843009213693951 1
)

gate "The fixed-depth product digit misses where the certified one does not"
(
out=$(decreal eval "1/3*0.306000001" --path paper --digits 4 2> "$RUNNER_TEMP/paper.txt")
test "$out" = "0.1020"
test "$(cat "$RUNNER_TEMP/paper.txt")" = "# paper: product 1 misses at 10**-3, 10**-4"
test "$(decreal eval "1/3*0.306000001" --digits 4)" = "0.1020"
)

gate "A fixed-depth product that misses its top digit prints certified digits"
(
timeout 5 decreal eval "-902/9973*-776/7" --path paper
out=$(decreal eval "-902/9973*-776/7" --path paper --digits 4 2> "$RUNNER_TEMP/paper.txt")
test "$out" = "10.0263"
test "$(cat "$RUNNER_TEMP/paper.txt")" = "# paper: product 1 misses at 10**1"
)

gate "The fixed-depth audit of a long product is linear"
(
plain=$(timeout 10 decreal eval "-902/9973*-776/7" --digits 100000)
paper=$(timeout 10 decreal eval "-902/9973*-776/7" --path paper --digits 100000 \
        2> "$RUNNER_TEMP/paper.txt")
test "$paper" = "$plain"
test "$(wc -l < "$RUNNER_TEMP/paper.txt")" = 1
grep -qE '^# paper: product 1 misses at 10\*\*1, ' "$RUNNER_TEMP/paper.txt"
)

gate "A long terminating hint is refused, and a hint of any length reads back"
(
code=0
timeout 5 decreal hint "748-51.01165*69.5489" 2> "$RUNNER_TEMP/hint.txt" || code=$?
test "$code" = 3
test "$(wc -l < "$RUNNER_TEMP/hint.txt")" = 1
grep -q "^error: " "$RUNNER_TEMP/hint.txt"
h=$(decreal hint "0.5+0.2")
test "$(decreal eval "0.5+0.2" --hint "$h" --digits 3)" = "0.700"
)

gate "Every subcommand runs warning-free in development mode"
(
run() {
  python -X dev -W error -m decreal.cli "$@" > /dev/null 2> "$RUNNER_TEMP/warn.txt"
  test ! -s "$RUNNER_TEMP/warn.txt"
}
run eval "(1/7+2/13)*0.(3)-4/9" --digits 40
run padic 3 "1/2*5" --digits 8
run encode 0.5 --format xs --letters 12
run classify mul --graph -- -1
run hint "0.5+0.2"
run sup 0.4 0.4999 0.21 --digits 4
run involution 3.14159 --digits 6
)
