#!/usr/bin/env bash
# Run the command line's numpy-free checks against one ewflab command.
#
# Usage: tools/cli_without_numpy.sh COMMAND...
#
#   tools/cli_without_numpy.sh no-numpy/bin/ewflab
#   PYTHONPATH=src tools/cli_without_numpy.sh python3.12 -m ewflab.cli
#
# COMMAND is run as `ewflab`, with each check's subcommand and options after
# it.  Every subcommand computes with the exact engine, so the checks pass
# where numpy is not installed; numpy is needed only by the library's dense
# Protocol.  Exits nonzero on the first failed check.  Scratch output goes
# to a temporary directory, removed on exit.
set -e -o pipefail

if [ "$#" -eq 0 ]; then
  echo "usage: $0 COMMAND..." >&2
  exit 2
fi
command=("$@")
ewflab() { "${command[@]}" "$@"; }
golden="$(cd "$(dirname "$0")/.." && pwd)/tests/golden"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
out="$work/out.txt"
err="$work/err.txt"

ewflab --help
# every default-coin output, text and JSON, is the golden file the tests compare, byte for byte
for sub in simulate verify histories bellbohm audit; do
  ewflab "$sub" | diff -u "$golden/${sub}_default.txt" -
  ewflab "$sub" --format json | diff -u "$golden/${sub}_default.json" -
done
ewflab report | diff -u "$golden/report_default.txt" -
ewflab argue --interpretation all | diff -u "$golden/argue_all_default.txt" -
ewflab argue --interpretation all --format json | diff -u "$golden/argue_all_default.json" -
ewflab histories --define 'a: w1=ok, w2=ok' --define 'b: w1=fail, w2=ok' --define 'd: z=-'
# the r x w1 family at a coin other than the paper's, whose failing off-diagonals (0.17) read every
# block of the coin forms, is the golden file the tests compare, byte for byte
ewflab histories --coin 0.6,0.8 --format json --define 'a: r=head, w1=ok' --define 'b: r=head, w1=fail' \
  --define 'c: r=tail, w1=ok' --define 'd: r=tail, w1=fail' | diff -u "$golden/histories_coin_0.6_0.8.json" -
# P[h] and every Born weight are raw, not divided by |a|^2 + |b|^2, so at coins that are not exactly
# normalised a stray normalisation would show: each prints the golden file the tests compare, byte
# for byte (verify exits 1 on FR8, which the paper's coin typed to ten digits fails by 1e-11)
ewflab histories --coin 1e-13,1 --format json | diff -u "$golden/histories_coin_1e-13_1.json" -
status=0
ewflab verify --coin 0.5773502692,0.8164965809 --format json > "$out" || status=$?
if [ "$status" -ne 1 ]; then
  echo "ewflab verify --coin 0.5773502692,0.8164965809 --format json: exit $status, expected 1" >&2
  exit 1
fi
diff -u "$golden/verify_coin_0.5773502692_0.8164965809.json" "$out"
# a staged family: the label r=tail read after MEAS4 and at its recording stage
ewflab histories --define 'a: r@MEAS4=tail' --define 'b: r=tail'
# events are put in stage order, so any spelling of a history prints what its in-order one does,
# byte for byte; a variable given twice is refused with exit 2 and a one-line error, no traceback
ewflab histories --define 'a: r=tail, w2=ok' --define 'b: r=tail' > "$work/in-order.txt"
ewflab histories --define 'a: w2=ok, r=tail' --define 'b: r=tail' | diff -u "$work/in-order.txt" -
status=0
ewflab histories --define 'a: r=head, r=tail' > "$out" 2> "$err" || status=$?
if [ "$status" -ne 2 ] || grep -q Traceback "$err" \
    || [ "$(grep -c '^ewflab: error: ' "$err")" -ne 1 ] \
    || [ "$(tail -n 1 "$err")" != "ewflab: error: history 'a': event stages must strictly increase" ]; then
  echo "ewflab histories --define 'a: r=head, r=tail': exit $status, expected 2 with a one-line error" >&2
  cat "$out" "$err" >&2
  exit 1
fi
# an interference of ~3.5e-14 is exactly nonzero: at a head weight of 1e-26 the r x w1 family's
# pairs (a, c) and (b, d) fail the exact engine's zero test, so the family is not jointly
# considerable, with no traceback
status=0
ewflab histories --coin 1e-13,1 --define 'a: r=head, w1=ok' --define 'b: r=head, w1=fail' \
  --define 'c: r=tail, w1=ok' --define 'd: r=tail, w1=fail' > "$out" 2> "$err" || status=$?
if [ "$status" -ne 0 ] || grep -q Traceback "$err" \
    || ! grep -qx 'verdict: family is not jointly considerable' "$out"; then
  echo "ewflab histories --coin 1e-13,1 (r x w1): exit $status, expected 0 with the family refused" >&2
  cat "$out" "$err" >&2
  exit 1
fi
ewflab bellbohm --reference
ewflab simulate --policy marginal --format json | python -m json.tool > /dev/null
ewflab bellbohm --reference --format json | python -m json.tool > /dev/null
# the paper's coin typed to ten digits is accepted but normalised only within 1e-9:
# verify and report exit 1 on failed facts, the no-collapse joint exits 0, and none
# prints a traceback
coin=0.5773502692,0.8164965809
for expected in "1 verify" "1 report" "0 simulate --policy marginal --format json"; do
  set -- $expected
  want=$1
  shift
  status=0
  ewflab "$@" --coin "$coin" > "$out" 2> "$err" || status=$?
  if [ "$status" -ne "$want" ] || grep -q Traceback "$err"; then
    echo "ewflab $* --coin $coin: exit $status, expected $want" >&2
    cat "$err" >&2
    exit 1
  fi
done
python -m json.tool "$out" > /dev/null
# coins other than the paper's read every record weight and beable config weight off the flat
# marginals of their pilot states: each exits 0 with no traceback, and the JSON parses
for args in "bellbohm --coin 0.6,0.8" "simulate --coin 0.28,0.96 --format json"; do
  status=0
  ewflab $args > "$out" 2> "$err" || status=$?
  if [ "$status" -ne 0 ] || grep -q Traceback "$err"; then
    echo "ewflab $args: exit $status, expected 0 with no traceback" >&2
    cat "$out" "$err" >&2
    exit 1
  fi
done
python -m json.tool "$out" > /dev/null
# a coin branch of tiny but exactly nonzero weight is divided by, not called empty: verify
# exits 1 on the other facts these coins fail, with no traceback and no "zero weight"
for coin in 1e-13,1 1,1e-13; do
  status=0
  ewflab verify --coin "$coin" > "$out" 2> "$err" || status=$?
  if [ "$status" -ne 1 ] || grep -q Traceback "$err" || grep -q "zero weight" "$out"; then
    echo "ewflab verify --coin $coin: exit $status, expected 1 with no traceback or empty branch" >&2
    cat "$out" "$err" >&2
    exit 1
  fi
done
# a head branch of weight about 1e-14 is exactly nonzero: bellbohm lists all 48 trajectories and
# a nonzero reference path, and simulate prints none of the four (head, -, ...) cells as 0 (the
# (head, +, ...) cells are 0 at every coin)
ewflab bellbohm --coin 1e-7,1 > "$out"
if [ "$(head -n 1 "$out")" != "exact beable trajectories (48 with positive probability)" ] \
    || tail -n 1 "$out" | grep -q 'p = 0 (0)$'; then
  echo "ewflab bellbohm --coin 1e-7,1: expected 48 trajectories and a nonzero reference path" >&2
  cat "$out" >&2
  exit 1
fi
ewflab simulate --coin 1e-7,1 > "$out"
if [ "$(grep -c '^(head, -, ' "$out")" -ne 4 ] || grep -Eq '^\(head, -, [a-z]+, [a-z]+\) +0 ' "$out"; then
  echo "ewflab simulate --coin 1e-7,1: expected four nonzero (head, -, ...) rows" >&2
  cat "$out" >&2
  exit 1
fi
# the flip hook reaches the facts only through exact.outcome_vectors: verify exits 1 on
# exactly one failed fact, FR8's joint-state-coefficients, with no traceback
status=0
ewflab verify --flip-ok-sign > "$out" 2> "$err" || status=$?
if [ "$status" -ne 1 ] || grep -q Traceback "$err" || [ "$(grep -c '^\[FAIL\]' "$out")" -ne 1 ] \
    || ! grep '^\[FAIL\]' "$out" | grep -q joint-state-coefficients; then
  echo "ewflab verify --flip-ok-sign: exit $status, expected 1 with one FAIL, joint-state-coefficients" >&2
  cat "$out" "$err" >&2
  exit 1
fi
