#!/usr/bin/env bash
# One benchmark smoke run: perfbench/run.py with the given arguments, its
# output shown, failing unless run.py exits 0 and its last line, the JSON
# result, reads "correct": true.  run.py exits 0 when its correctness gate
# fails, so its exit status alone does not catch a broken gate.
#
#   bash .github/smoke-run.sh --workload mc_corpus --seed 1 --seconds 3 --trace 0
set -euo pipefail
out=$(mktemp)
trap 'rm -f "$out"' EXIT
status=0
python3 perfbench/run.py "$@" > "$out" || status=$?
cat "$out"
test "$status" -eq 0
tail -n 1 "$out" | python3 -c '
import json, sys
result = json.load(sys.stdin)
sys.exit(0 if result["correct"] is True else "the run failed its correctness gate: %s" % json.dumps(result))
'
