#!/usr/bin/env bash
# Pure-refactor equivalence probe: a change that only moves or merges
# code must leave every simulated benchmark field byte-identical.
#
#   bench/equiv.sh <parent-commit> [seed ...]      (seeds default: 1 2)
#
# Run from the repository root. Exports <parent-commit> with
# `git archive` into a fresh temporary directory outside the repository,
# runs the three perfbench workloads (10 s, end-to-end metrics) at each
# seed on the parent and on this working tree, and compares `correct`,
# `attempted`, `failed` and every metric except the wall-clock and
# allocator ones (setup_s, alloc_mwords_per_sim_s, live_heap_mb), which
# only have to stay inside BENCHMARK.json's bounds. It also replays every
# schedule in this tree's explore/corpus/ with both trees' explorer and
# compares the printed verdicts byte for byte. Prints each difference;
# exits 1 if there is any, 2 on a usage or run error. Also
# prints, for information only (never a failure), both trees'
# alloc_mwords_per_sim_s and live_heap_mb side by side with the change
# in percent, so one run also sizes an allocation change.
# About 1.5 min per tree and seed on a 2-vCPU host.
set -euo pipefail

if [ $# -lt 1 ]; then
  echo "usage: bench/equiv.sh <parent-commit> [seed ...]" >&2
  exit 2
fi
parent=$1
shift
seeds=("$@")
[ ${#seeds[@]} -gt 0 ] || seeds=(1 2)
[ -f perfbench/run.py ] || { echo "equiv: run from the repository root" >&2; exit 2; }

out=$(mktemp -d "${TMPDIR:-/tmp}/equiv.XXXXXX")
trap 'rm -rf "$out"' EXIT
mkdir "$out/parent"
git archive "$parent" | tar -x -C "$out/parent"

for tree in parent change; do
  dir=$PWD
  [ "$tree" = parent ] && dir=$out/parent
  for w in geo-causal strong-openloop nemesis-churn; do
    for s in "${seeds[@]}"; do
      if ! (cd "$dir" && python3 perfbench/run.py --workload "$w" --seed "$s" \
              --seconds 10 --trace 0 2>/dev/null | tail -1) > "$out/$tree-$w-$s.json"; then
        echo "equiv: $tree $w seed $s failed to run" >&2
        exit 2
      fi
    done
  done
done

dune=(dune)
command -v dune >/dev/null || dune=(opam exec -- dune)
for tree in parent change; do
  dir=$PWD
  [ "$tree" = parent ] && dir=$out/parent
  if ! (cd "$dir" && "${dune[@]}" build --root . --display quiet bin/explore.exe 2>/dev/null); then
    echo "equiv: $tree explorer failed to build" >&2
    exit 2
  fi
  # a failing oracle exits 1; its verdict lines are what gets compared
  for f in explore/corpus/*.json; do
    "$dir/_build/default/bin/explore.exe" --replay "$f" || true
  done > "$out/$tree-corpus.txt"
done
corpus=0
if cmp -s "$out/parent-corpus.txt" "$out/change-corpus.txt"; then
  echo "corpus replay: identical"
else
  diff "$out/parent-corpus.txt" "$out/change-corpus.txt" | sed 's/^/corpus replay: /' || true
  echo "corpus replay: DIFFERS"
  corpus=1
fi

status=0
python3 - "$out" "${seeds[@]}" <<'EOF' || status=$?
import json, sys

out, seeds = sys.argv[1], sys.argv[2:]
unsimulated = {"setup_s", "alloc_mwords_per_sim_s", "live_heap_mb"}
diffs = 0
for w in ["geo-causal", "strong-openloop", "nemesis-churn"]:
    for s in seeds:
        a, b = (json.load(open("%s/%s-%s-%s.json" % (out, t, w, s)))
                for t in ("parent", "change"))
        fields = [(k, a[k], b[k]) for k in ("correct", "attempted", "failed")]
        for m in sorted(set(a["metrics"]) | set(b["metrics"])):
            if m not in unsimulated:
                get = lambda r: r["metrics"].get(m, {}).get("value")
                fields.append((m, get(a), get(b)))
        bad = [f for f in fields if f[1] != f[2]]
        for name, pa, ch in bad:
            print("%s seed %s: %s parent %r change %r" % (w, s, name, pa, ch))
        print("%s seed %s: %s" % (w, s, "DIFFERS" if bad else "identical"))
        diffs += len(bad)
        for m in ("alloc_mwords_per_sim_s", "live_heap_mb"):
            pa, ch = (r["metrics"].get(m, {}).get("value") for r in (a, b))
            if pa is None or ch is None:
                continue
            pct = "%+.2f%%" % (100.0 * (ch - pa) / pa) if pa else "n/a"
            print("%s seed %s:   %s parent %.3f change %.3f (%s)"
                  % (w, s, m, pa, ch, pct))
sys.exit(1 if diffs else 0)
EOF
[ "$status" -le 1 ] || exit "$status"
exit $((status | corpus))
