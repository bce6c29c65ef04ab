#!/usr/bin/env bash
# Build the repository benchmark in build-bench/ (Release) and run it.
#
#   benchmark/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#       One workload. The last line of standard output is its JSON
#       result; the exit status is non-zero if a correctness check fails.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace] [--smoke]
#                    [--out FILE]
#       Every workload, each in its own process so peak RSS is per
#       workload. Prints "workload metric value unit" lines, writes one
#       {"workload","seed","trace","result"} JSON line per workload to
#       FILE, and exits non-zero if any correctness check fails.
#
# Run from anywhere; paths resolve against this script's checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build-bench"

workload=""
seed=1
trace=0
out=""
extra=()
while (($#)); do
    case "$1" in
      --workload) workload="$2"; shift 2 ;;
      --seed) seed="$2"; shift 2 ;;
      --seconds) extra+=(--seconds "$2"); shift 2 ;;
      --trace)
        if [[ "${2-}" == 0 || "${2-}" == 1 ]]; then
            trace="$2"; shift 2
        else
            trace=1; shift
        fi ;;
      --smoke) extra+=(--smoke); shift ;;
      --out) out="$2"; shift 2 ;;
      *) echo "run.sh: unknown option '$1'" >&2; exit 2 ;;
    esac
done

# The compiler's temporary files stay in the checkout too.
export TMPDIR="$build/tmp"
mkdir -p "$TMPDIR"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
    if ! cmake -S "$root/benchmark" -B "$build" \
            -DCMAKE_BUILD_TYPE=Release > "$build/configure.log" 2>&1; then
        cat "$build/configure.log" >&2
        rm -f "$build/CMakeCache.txt"
        exit 1
    fi
fi
if ! cmake --build "$build" --target cactus_bench -j "$(nproc)" \
        > "$build/build.log" 2>&1; then
    cat "$build/build.log" >&2
    exit 1
fi
bench="$build/cactus_bench"

if [[ -n "$workload" ]]; then
    exec "$bench" --workload "$workload" --seed "$seed" --trace "$trace" \
        ${extra[@]+"${extra[@]}"}
fi

[[ -z "$out" ]] || : > "$out"
status=0
for w in $("$bench" --list-workloads); do
    result="$("$bench" --workload "$w" --seed "$seed" --trace "$trace" \
        ${extra[@]+"${extra[@]}"})" || status=1
    last="$(printf '%s\n' "$result" | tail -n 1)"
    printf '%s\n' "$result" | sed '$d'
    if [[ "$last" != "{"* ]]; then
        echo "run.sh: $w produced no result" >&2
        status=1
    elif [[ -n "$out" ]]; then
        printf '{"workload":"%s","seed":%s,"trace":%s,"result":%s}\n' \
            "$w" "$seed" "$trace" "$last" >> "$out"
    fi
done
exit "$status"
