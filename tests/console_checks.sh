#!/usr/bin/env bash
# The console-script checks of CI, runnable anywhere:
#
#   bash tests/console_checks.sh                     # installed absmeter
#   PYTHONPATH=src ABSMETER="python -m absmeter" bash tests/console_checks.sh
#
# ABSMETER is the command that runs absmeter (default: absmeter) and is split
# into words. The arguments name the parts to run, goldens, refusals and
# numpy-free (default: all three). Any failed check ends the script with a
# nonzero status.
#
# goldens:  every golden report is reproduced byte for byte, and every
#           exemplar declaration equals json.dumps(..., indent=2,
#           sort_keys=True) of it, with the OpenBLAS thread count unset and
#           again with one thread; a numpy divide or log warning fails the
#           run instead of passing silently.
# refusals: each malformed declaration exits 1 with exactly one error line
#           naming its JSON path, never a traceback or exit 2; each usage
#           error exits 1 with its subcommand's usage, then its error line.
# numpy-free: with a numpy that fails to import first on PYTHONPATH, score,
#           --help and a usage error print what they print with numpy and
#           exit 0, 0 and 1; validate, which needs numpy, must fail there, so
#           the stub is known to be in the way.
set -eu -o pipefail
cd "$(dirname "$0")/.."
read -r -a absmeter <<< "${ABSMETER:-absmeter}"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
export PYTHONWARNINGS=error::RuntimeWarning

goldens() {
  # the benchmark's seed-1 scenario at the 4096-letter stochastic limit
  python -c "import json, sys; sys.path.insert(0, 'perfbench'); from workloads import stochastic_declaration; print(json.dumps(stochastic_declaration(1)))" \
    > "$tmp/stochastic-4096-seed1.json"
  for threads in unset 1; do
    if [ "$threads" = 1 ]; then export OPENBLAS_NUM_THREADS=1; fi
    for name in barchart integer-plot random-plotter figure-scores; do
      python -c "import json, sys; from absmeter import exemplar; print(json.dumps(exemplar(sys.argv[1]).declaration, indent=2, sort_keys=True))" "$name" \
        > "$tmp/$name.declaration.json"
      "${absmeter[@]}" exemplar "$name" | diff - "$tmp/$name.declaration.json"
      for format in json:json csv:csv table:txt; do
        "${absmeter[@]}" exemplar "$name" | "${absmeter[@]}" analyze - --format "${format%%:*}" \
          | diff - "tests/golden/$name.${format##*:}"
      done
    done
    for name in molecular_axes route_cost_premise_violated route_premises_hold; do
      for format in json:json csv:csv table:txt; do
        "${absmeter[@]}" analyze "tests/fixtures/$name.json" --format "${format%%:*}" \
          | diff - "tests/golden/$name.${format##*:}"
      done
    done
    for format in json:json csv:csv table:txt; do
      "${absmeter[@]}" analyze "$tmp/stochastic-4096-seed1.json" --format "${format%%:*}" \
        | diff - "tests/golden/stochastic-4096-seed1.${format##*:}"
    done
    "${absmeter[@]}" axis tests/fixtures/molecular_axes.json \
      | diff - tests/golden/molecular_axes.axis.txt
    "${absmeter[@]}" axis tests/fixtures/molecular_axes.json --axis bond-structure \
      | diff - tests/golden/molecular_axes.axis-bond-structure.txt
  done
  unset OPENBLAS_NUM_THREADS
}

refuses() {
  status=0
  printf '%s' "$1" | "${absmeter[@]}" validate - 2> "$tmp/stderr.txt" || status=$?
  test "$status" = 1
  printf '%s\n' "$2" | diff - "$tmp/stderr.txt"
}

# usage_error EXPECTED ARGS...: absmeter ARGS exits 1, and its stderr starts
# with the usage of the subcommand ARGS names and ends in a line starting
# with EXPECTED. Only those two lines are compared: argparse wraps the usage
# to the terminal's width, and how it quotes a choice list varies between
# Python versions.
usage_error() {
  expected=$1
  shift
  status=0
  "${absmeter[@]}" "$@" 2> "$tmp/stderr.txt" || status=$?
  first=$(head -n 1 "$tmp/stderr.txt")
  last=$(tail -n 1 "$tmp/stderr.txt")
  if [ "$status" != 1 ] || [[ $first != "usage: absmeter $1 "* ]] || [[ $last != "$expected"* ]]; then
    echo "absmeter $*: exit $status, stderr:" >&2
    cat "$tmp/stderr.txt" >&2
    return 1
  fi
}

refusals() {
  refuses '{"pipelines": [{"id": "p", "stages": [], "prior": {"0": 1.0}}]}' \
    'error: pipelines[0].stages: a pipeline needs at least two stages'
  refuses '{"alphabets": [{"id": "a", "uniform_count": 1}], "channels": [{"id": "f", "from": "a", "to": "a", "deterministic": {"map": {"0": "0"}}}], "stages": [{"id": "s1", "forward": "f", "cost": 1}], "pipelines": [{"id": "p", "stages": ["s1", 3]}]}' \
    'error: pipelines[0].stages[1]: expected a non-empty string, got 3'
  refuses '[1, 2, 3]' \
    'error: $: expected an object, got list'
  # two keys of a grid map that name one letter fail at the later one, and a
  # bad value fails before a later bad key
  refuses '{"alphabets": [{"id": "a", "uniform_range": {"min": 0, "max": 2, "step": 1}}, {"id": "b", "letters": [{"id": "x"}, {"id": "y"}]}], "channels": [{"id": "f", "from": "a", "to": "b", "deterministic": {"map": {"0": "x", "1": "y", "01": "x"}}}]}' \
    "error: channels[0].deterministic.map['01']: '01' names the same letter as '1'"
  refuses '{"alphabets": [{"id": "a", "uniform_range": {"min": 0, "max": 2, "step": 1}}, {"id": "b", "letters": [{"id": "x"}, {"id": "y"}]}], "channels": [{"id": "f", "from": "a", "to": "b", "deterministic": {"map": {"0": "x", "1": "z", "3": "y"}}}]}' \
    "error: channels[0].deterministic.map['1']: 'z' is not a letter of alphabet 'b'"
  usage_error "error: argument --format: invalid choice: 'xml'" \
    analyze tests/fixtures/route_premises_hold.json --format xml
  usage_error "error: the following arguments are required: --condition-b" \
    score --condition-a yes
}

# same_without_numpy STATUS ARGS...: absmeter ARGS exits STATUS with numpy
# and under the numpy stub, and writes the same stdout and stderr under both
same_without_numpy() {
  expected=$1
  shift
  plain=0
  "${absmeter[@]}" "$@" > "$tmp/out.txt" 2> "$tmp/err.txt" || plain=$?
  status=0
  PYTHONPATH="$tmp/stub${PYTHONPATH:+:$PYTHONPATH}" "${absmeter[@]}" "$@" \
    > "$tmp/stub-out.txt" 2> "$tmp/stub-err.txt" || status=$?
  if [ "$plain" != "$expected" ] || [ "$status" != "$expected" ] \
    || ! cmp -s "$tmp/out.txt" "$tmp/stub-out.txt" || ! cmp -s "$tmp/err.txt" "$tmp/stub-err.txt"; then
    echo "absmeter $*: exit $plain with numpy, $status without; without, stdout and stderr:" >&2
    cat "$tmp/stub-out.txt" "$tmp/stub-err.txt" >&2
    return 1
  fi
}

numpy_free() {
  mkdir -p "$tmp/stub/numpy"
  echo 'raise ImportError("numpy is stubbed out")' > "$tmp/stub/numpy/__init__.py"
  same_without_numpy 0 score --condition-a yes --condition-b na
  same_without_numpy 0 --help
  same_without_numpy 1 analyze tests/fixtures/route_premises_hold.json --format xml
  status=0
  PYTHONPATH="$tmp/stub${PYTHONPATH:+:$PYTHONPATH}" "${absmeter[@]}" \
    validate tests/fixtures/route_premises_hold.json > /dev/null 2> "$tmp/stub-err.txt" || status=$?
  if [ "$status" = 0 ] || ! grep -q "numpy is stubbed out" "$tmp/stub-err.txt"; then
    echo "the numpy stub did not stop validate: exit $status" >&2
    return 1
  fi
}

if [ $# = 0 ]; then set -- goldens refusals numpy-free; fi
for part in "$@"; do
  case $part in
    goldens | refusals) "$part" ;;
    numpy-free) numpy_free ;;
    *) echo "unknown part: $part" >&2; exit 2 ;;
  esac
done
