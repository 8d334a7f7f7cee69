#!/usr/bin/env bash
# Paired archis-bench comparison of two checkouts on one workload.
#
#   scripts/pair.sh PARENT_DIR CHANGE_DIR WORKLOAD PAIRS SEED...
#
# Runs PAIRS pairs; pair i uses SEED number i modulo the number of seeds.
# Each pair runs both checkouts' benchmark/target/release/archis-bench
# (build it first in each: cargo build --release --manifest-path
# benchmark/Cargo.toml), each from its own checkout root, with
# `--seconds 8 --trace 0`; the side that runs first alternates from pair to
# pair. Every result line is kept, tagged with side, seed and pair, in
# CHANGE_DIR/target/pair/WORKLOAD.jsonl.
#
# For each end-to-end metric of CHANGE_DIR/BENCHMARK.json it prints both
# sides' median [q1, q3], the change/parent ratio of the medians and the
# wins: the pairs in which the change was better. Exits 1 if any run is
# not `"correct": true, "failed": 0` (or printed no result), 2 on a usage
# error. A stand-in until the harness pairs runs itself (ROADMAP 7(c));
# not part of scripts/ci.sh.
set -euo pipefail

usage() {
    sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
    exit 2
}

[[ $# -ge 5 && "$4" =~ ^[1-9][0-9]*$ ]] || usage
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4
shift 4
seeds=("$@")
for dir in "$parent" "$change"; do
    if [[ ! -x "$dir/benchmark/target/release/archis-bench" ]]; then
        echo "pair.sh: $dir/benchmark/target/release/archis-bench is not built" >&2
        exit 2
    fi
done

mkdir -p "$change/target/pair"
log="$change/target/pair/$workload.jsonl"
: >"$log"
bad=0

# run SIDE DIR SEED PAIR: one untraced run, its result line kept.
run() {
    local line
    line=$(cd "$2" && ./benchmark/target/release/archis-bench --workload "$workload" \
        --seed "$3" --seconds 8 --trace 0 2>/dev/null | tail -n 1) || true
    echo "{\"side\":\"$1\",\"seed\":$3,\"pair\":$4,\"result\":${line:-null}}" >>"$log"
    if [[ "$line" != *'"correct":true'* || "$line" != *'"failed":0,'* ]]; then
        echo "pair.sh: $1 run, seed $3, pair $4 is not correct: ${line:-no result}" >&2
        bad=1
    fi
}

for ((i = 0; i < pairs; i++)); do
    seed=${seeds[i % ${#seeds[@]}]}
    if ((i % 2 == 0)); then
        run parent "$parent" "$seed" "$i"
        run change "$change" "$seed" "$i"
    else
        run change "$change" "$seed" "$i"
        run parent "$parent" "$seed" "$i"
    fi
    echo "pair.sh: pair $((i + 1))/$pairs (seed $seed) done" >&2
done

# "name better" per end-to-end metric, in BENCHMARK.json order.
metrics=$(awk '
    /"end_to_end"/ { on = 1 }
    /"per_layer"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
    on && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }
' "$change/BENCHMARK.json")

awk -v metrics="$metrics" -v pairs="$pairs" -v workload="$workload" '
    function value(line, name, s) {
        if (!match(line, "\"" name "\":\\{\"value\":[-0-9.eE+]+")) return ""
        s = substr(line, RSTART, RLENGTH)
        sub(/.*"value":/, "", s)
        return s + 0
    }
    # Quantile p of the n sorted values in a[1..n] (linear interpolation).
    function quant(a, n, p, h, lo) {
        h = (n - 1) * p
        lo = int(h)
        return lo + 2 <= n ? a[lo + 1] + (h - lo) * (a[lo + 2] - a[lo + 1]) : a[n]
    }
    function sorted(side, m, a, n, i, j, t) {
        n = 0
        for (i = 0; i < pairs; i++) if ((side, m, i) in v) a[++n] = v[side, m, i]
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        return n
    }
    function summary(a, n) {
        return sprintf("%.4g [%.4g, %.4g]", quant(a, n, 0.5), quant(a, n, 0.25), quant(a, n, 0.75))
    }
    BEGIN {
        nm = split(metrics, words, /[ \n]/)
        for (k = 1; k < nm; k += 2) { name[++count] = words[k]; better[count] = words[k + 1] }
    }
    {
        match($0, /"side":"[a-z]+"/); side = substr($0, RSTART + 8, RLENGTH - 9)
        match($0, /"pair":[0-9]+/); pair = substr($0, RSTART + 7, RLENGTH - 7) + 0
        for (k = 1; k <= count; k++) {
            x = value($0, name[k])
            if (x != "") v[side, name[k], pair] = x
        }
    }
    END {
        printf "%s, %d pairs: median [q1, q3]\n", workload, pairs
        printf "%-26s %-30s %-30s %-14s %s\n", "metric", "parent", "change", "change/parent", "wins"
        for (k = 1; k <= count; k++) {
            m = name[k]
            np = sorted("parent", m, p)
            nc = sorted("change", m, c)
            if (np == 0 || nc == 0) { printf "%-26s (no values)\n", m; continue }
            wins = 0
            for (i = 0; i < pairs; i++) {
                if (!(("parent", m, i) in v) || !(("change", m, i) in v)) continue
                d = v["change", m, i] - v["parent", m, i]
                if ((better[k] == "higher" && d > 0) || (better[k] == "lower" && d < 0)) wins++
            }
            mp = quant(p, np, 0.5)
            ratio = mp == 0 ? "-" : sprintf("%.3f", quant(c, nc, 0.5) / mp)
            printf "%-26s %-30s %-30s %-14s %d/%d\n", m, summary(p, np), summary(c, nc), ratio, wins, pairs
            delete p
            delete c
        }
    }
' "$log"

echo "pair.sh: result lines kept in $log" >&2
exit "$bad"
