#!/usr/bin/env bash
# Repeatability check: run N full sets of the benchmark, one seed each
# (K, K+1, ..., K+N-1), then report every end-to-end metric's median,
# quartiles and relative spread (q3 - q1) / median against its bound in
# BENCHMARK.json. The runs go to FILE, the report to FILE.spread.txt.
# Exits non-zero if a run fails a correctness check or a spread other
# than setup_s's reaches its bound.
#
#   benchmark/repeat.sh N [--first-seed K] [--seconds S] [--out FILE]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
n="${1:?usage: repeat.sh N [--first-seed K] [--seconds S] [--out FILE]}"
shift
first=1
out="$root/build-bench/repeat.jsonl"
extra=()
while (($#)); do
    case "$1" in
      --first-seed) first="$2"; shift 2 ;;
      --seconds) extra+=(--seconds "$2"); shift 2 ;;
      --out) out="$2"; shift 2 ;;
      *) echo "repeat.sh: unknown option '$1'" >&2; exit 2 ;;
    esac
done

mkdir -p "$(dirname "$out")"
: > "$out"
status=0
for ((i = 0; i < n; i++)); do
    "$here/run.sh" --seed "$((first + i))" --out "$out.set" \
        ${extra[@]+"${extra[@]}"} >&2 || status=1
    cat "$out.set" >> "$out"
done
rm -f "$out.set"
"$root/build-bench/cactus_bench" --spread "$out" | tee "$out.spread.txt" \
    || status=1
exit "$status"
