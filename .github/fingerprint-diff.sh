#!/usr/bin/env bash
# Report which digests of .github/fingerprint.py a change moves: those of
# <rev> and those of this working tree, each printed by its own tree's
# fingerprint.py against its own src/, with one BLAS thread (the large
# digest depends on the thread count).  <rev> is exported from the local
# repository with git archive; nothing is fetched.
#
#   bash .github/fingerprint-diff.sh HEAD^
#
# It only reports, and exits 0 whatever the digests: also when <rev> is not
# in the repository (a first commit, or a clone too shallow to hold it),
# when <rev> has no fingerprint.py and when either tree's run fails.
set -uo pipefail
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1

rev=${1:?usage: fingerprint-diff.sh <rev>}
here=$(cd "$(dirname "$0")/.." && pwd)
if ! commit=$(git -C "$here" rev-parse --verify --quiet "$rev^{commit}"); then
  echo "fingerprint diff skipped: no commit $rev in this repository"
  exit 0
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/old"
if ! git -C "$here" archive "$commit" | tar -x -C "$work/old"; then
  echo "fingerprint diff skipped: could not export $rev"
  exit 0
fi

# digests <tree> <output file>: the tree's fingerprint lines, or a note why none
digests() {
  if [ ! -f "$1/.github/fingerprint.py" ]; then
    echo "(no .github/fingerprint.py)" > "$2"
    return 1
  fi
  local status=0
  (cd "$1" && PYTHONPATH="$1/src${PYTHONPATH:+:$PYTHONPATH}" python .github/fingerprint.py) > "$2" || status=$?
  if [ "$status" -ne 0 ]; then
    echo "(fingerprint.py failed with exit status $status)" >> "$2"
    return 1
  fi
}

ok=1
digests "$work/old" "$work/old.txt" || ok=0
digests "$here" "$work/new.txt" || ok=0
echo "== $rev (${commit:0:12}), one BLAS thread"
cat "$work/old.txt"
echo "== this tree, one BLAS thread"
cat "$work/new.txt"
if [ "$ok" -eq 0 ]; then
  echo "== no comparison: a tree gave no digests"
  exit 0
fi
echo "== digests that moved"
awk 'NR == FNR { old[$1] = $2; next }
     !($1 in old) { print $1 " (new)"; moved = 1; next }
     old[$1] != $2 { print $1; moved = 1 }
     { delete old[$1] }
     END { for (name in old) { print name " (gone)"; moved = 1 }
           if (!moved) print "none" }' "$work/old.txt" "$work/new.txt"
exit 0
