#!/usr/bin/env bash
# The console-script checks of CI, runnable anywhere:
#
#   bash tests/console_checks.sh                     # installed absmeter
#   PYTHONPATH=src ABSMETER="python -m absmeter" bash tests/console_checks.sh
#
# ABSMETER is the command that runs absmeter (default: absmeter) and is split
# into words. The arguments name the parts to run, goldens and refusals
# (default: both). Any failed check ends the script with a nonzero status.
#
# goldens:  every golden report is reproduced byte for byte, with the
#           OpenBLAS thread count unset and again with one thread; a numpy
#           divide or log warning fails the run instead of passing silently.
# refusals: each malformed declaration exits 1 with exactly one error line
#           naming its JSON path, never a traceback or exit 2.
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
}

if [ $# = 0 ]; then set -- goldens refusals; fi
for part in "$@"; do
  case $part in
    goldens | refusals) "$part" ;;
    *) echo "unknown part: $part" >&2; exit 2 ;;
  esac
done
