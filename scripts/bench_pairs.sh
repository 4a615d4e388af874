#!/usr/bin/env bash
# Alternating parent/change pairs of the perf ledger (bench_e2e/README.md,
# "Run discipline"; ROADMAP item 4e).
#
#   scripts/bench_pairs.sh <parent-ref> <pairs> <seconds> <workload>...
#
# Checks <parent-ref> out as a git worktree under target/, builds its
# bench_e2e and the working tree's, each into a target directory of its
# own, and runs them in turn on every workload: odd pairs parent first,
# even pairs change first. Prints, per workload and end-to-end metric, each
# side's median and quartiles over the pairs and how many pairs each side
# won, then `bench_e2e --compare` over each side's median-qps run. A workload
# whose outcome digest differs between the sides is marked `DIGEST CHANGED`
# (table header and stderr). Exits non-zero if a run was incorrect or the
# comparison reads `worse`.
# SEED (default 0) is the trace seed of every run.
set -euo pipefail

if [ $# -lt 4 ]; then
    sed -n '2,16p' "$0" >&2
    exit 2
fi
parent_ref=$1 pairs=$2 seconds=$3
shift 3
workloads=("$@")
seed=${SEED:-0}

root=$(git rev-parse --show-toplevel)
work=$root/target/bench_pairs
parent_src=$work/parent
runs=$work/runs
rm -rf "$runs"
mkdir -p "$runs"

git -C "$root" worktree remove --force "$parent_src" 2>/dev/null || true
git -C "$root" worktree add --force --detach "$parent_src" "$parent_ref" >&2
trap 'git -C "$root" worktree remove --force "$parent_src"' EXIT

# Building rewrites bench_e2e/Cargo.lock; that drift is not this script's
# to keep.
build() { # <checkout> <target dir>
    cargo build --release --quiet --manifest-path "$1/bench_e2e/Cargo.toml" --target-dir "$2"
    git -C "$1" checkout -- bench_e2e/Cargo.lock
}
build "$parent_src" "$work/parent-target"
build "$root" "$work/change-target"

run() { # <side> <workload> <pair>
    "$work/$1-target/release/bench_e2e" --workload "$2" --seed "$seed" \
        --seconds "$seconds" --trace 0 --out "$runs/$1.$2.$3.json" \
        | grep -v '^{' >"$runs/$1.$2.$3.txt"
}
for workload in "${workloads[@]}"; do
    for pair in $(seq 1 "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            run "$side" "$workload" "$pair"
        done
        echo "$workload pair $pair/$pairs ($order):" \
            "qps $(awk '$2 == "qps" { print $3 }' "$runs/parent.$workload.$pair.txt")" \
            "-> $(awk '$2 == "qps" { print $3 }' "$runs/change.$workload.$pair.txt")" >&2
    done
done

# Per workload x metric: both sides' quartiles over the pairs, and the wins.
for workload in "${workloads[@]}"; do
    parent_digest=$(awk '$4 == "digest" { print $5 }' "$runs/parent.$workload.1.txt")
    change_digest=$(awk '$4 == "digest" { print $5 }' "$runs/change.$workload.1.txt")
    # An outcome-neutral change keeps every digest: say so where it did not,
    # in the table and on stderr, which is what a log of a long run shows.
    changed=""
    if [ "$parent_digest" != "$change_digest" ]; then
        changed=" DIGEST CHANGED"
        echo "$workload: DIGEST CHANGED: parent $parent_digest, change $change_digest" >&2
    fi
    echo
    echo "$workload: $pairs pairs, seed $seed, $seconds s;" \
        "digest parent $parent_digest change $change_digest$changed"
    for pair in $(seq 1 "$pairs"); do
        for side in parent change; do
            awk -v side=$side -v pair="$pair" 'NF == 4 { print side, pair, $2, $3 }' \
                "$runs/$side.$workload.$pair.txt"
        done
    done | awk '
        function quantile(side, metric, p,    n, i, j, t, v, pos, lo) {
            n = 0
            for (i = 1; i <= pairs; i++) v[++n] = value[side, i, metric]
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
            pos = (n - 1) * p + 1
            lo = int(pos)
            return lo == n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
        }
        { value[$1, $2, $3] = $4; if (!($3 in seen)) { seen[$3] = 1; order[++metrics] = $3 }; if ($2 > pairs) pairs = $2 }
        END {
            printf "  %-19s %13s %13s %13s   %13s %13s %13s  %s\n", "metric",
                "parent q1", "median", "q3", "change q1", "median", "q3", "wins parent:change"
            for (m = 1; m <= metrics; m++) {
                metric = order[m]
                higher = (metric == "qps" || metric == "recall_mean")
                won["parent"] = won["change"] = 0
                for (i = 1; i <= pairs; i++) {
                    a = value["parent", i, metric]; b = value["change", i, metric]
                    if (a != b) won[(b > a) == higher ? "change" : "parent"]++
                }
                printf "  %-19s %13.6g %13.6g %13.6g   %13.6g %13.6g %13.6g  %d:%d\n", metric,
                    quantile("parent", metric, 0.25), quantile("parent", metric, 0.5), quantile("parent", metric, 0.75),
                    quantile("change", metric, 0.25), quantile("change", metric, 0.5), quantile("change", metric, 0.75),
                    won["parent"], won["change"]
            }
        }'
done

# One results file per side from its median-qps run of each workload (the
# lower middle one when the pairs are even), then the ledger's own verdict.
results() { # <side>
    local sep="" workload pair median
    printf '{"workloads": {'
    for workload in "${workloads[@]}"; do
        median=$(for pair in $(seq 1 "$pairs"); do
            echo "$(awk '$2 == "qps" { print $3 }' "$runs/$1.$workload.$pair.txt") $pair"
        done | sort -g | awk -v n="$pairs" 'NR == int((n + 1) / 2) { print $2 }')
        printf '%s"%s": ' "$sep" "$workload"
        cat "$runs/$1.$workload.$median.json"
        sep=", "
    done
    printf '}}\n'
}
results parent >"$work/parent.json"
results change >"$work/change.json"
echo
"$work/change-target/release/bench_e2e" --compare "$work/parent.json" "$work/change.json"
