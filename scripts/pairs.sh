#!/usr/bin/env bash
# Paired benchmark runs of one metric: parent commit against the working
# tree, the protocol every performance claim here rests on.
#
#   scripts/pairs.sh <parent-rev> <workload> <metric> [seed] [pairs]
#
# Builds the benchmark package (crates/bench/src/bin/perf) twice, from
# `git archive <parent-rev>` and from a copy of the working tree's
# tracked and untracked, not ignored, files, each in its own directory
# and target directory under $TMPDIR (default /tmp), then runs
# `perf --workload <workload> --seed <seed>` (default seed 42, 10 pairs)
# at the benchmark's default length, the two sides alternating and
# alternating which side of a pair runs first. Prints every run, each
# side's median and quartiles, how many pairs the change won (ties count
# for neither side), and whether the claim rule holds: the change wins at
# least nine tenths of the pairs and the medians differ by more than the
# parent's quartile distance. Whether lower or higher is better is read
# from BENCHMARK.json. Each run's whole output is kept under
# $TMPDIR/pairs/logs/, so the other metrics of the same runs can be read
# too. The builds are kept and reused by the next call (the parent's per
# revision, the working tree's refreshed each call).
set -euo pipefail

if [ $# -lt 3 ]; then
    sed -n '4,5p' "$0" | sed 's/^# \{0,3\}//' >&2
    exit 2
fi
parent=$1 workload=$2 metric=$3 seed=${4:-42} pairs=${5:-10}
root=$(git rev-parse --show-toplevel)
cd "$root"
rev=$(git rev-parse --verify "$parent^{commit}")
base=${TMPDIR:-/tmp}/pairs
manifest=crates/bench/src/bin/perf/Cargo.toml

better=$(grep -o "\"name\": \"$metric\"[^}]*\"better\": \"[a-z]*\"" BENCHMARK.json |
    sed 's/.*"better": "\([a-z]*\)"/\1/' | head -n 1)
if [ -z "$better" ]; then
    echo "pairs.sh: BENCHMARK.json names no metric \`$metric\`" >&2
    exit 2
fi

# build <side> <source dir>: the side's perf binary, built in its own
# target directory.
build() {
    echo "building $1 ..." >&2
    cargo build --release --quiet --manifest-path "$2/$manifest" \
        --target-dir "$base/$1-target" >&2
    echo "$base/$1-target/release/perf"
}

src_parent=$base/parent-$rev
if [ ! -d "$src_parent" ]; then
    mkdir -p "$src_parent.part"
    git archive "$rev" | tar -x -C "$src_parent.part"
    mv "$src_parent.part" "$src_parent"
fi
src_change=$base/change
rm -rf "$src_change"
mkdir -p "$src_change"
git ls-files -z --cached --others --exclude-standard |
    xargs -0 -r sh -c 'for f; do [ -e "$f" ] && printf "%s\0" "$f"; done' sh |
    tar --null -T - -cf - | tar -x -C "$src_change"

bin_parent=$(build "parent-$rev" "$src_parent")
bin_change=$(build change "$src_change")

logs=$base/logs
mkdir -p "$logs"

# run <side> <binary> <pair>: the metric's value from one run.
run() {
    local out log=$logs/$workload-seed$seed-$1-$3.txt
    out=$(mktemp -d "$base/run.XXXXXX")
    "$2" --workload "$workload" --seed "$seed" --out "$out" >"$log"
    rm -rf "$out"
    awk -v w="$workload" -v m="$metric" '$1 == w && $2 == m { print $3 }' "$log"
}

parent_runs=() change_runs=()
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        p=$(run parent "$bin_parent" $i) c=$(run change "$bin_change" $i)
    else
        c=$(run change "$bin_change" $i) p=$(run parent "$bin_parent" $i)
    fi
    if [ -z "$p" ] || [ -z "$c" ]; then
        echo "pairs.sh: a run printed no \`$metric\` for \`$workload\`" >&2
        exit 1
    fi
    parent_runs+=("$p") change_runs+=("$c")
    echo "pair $i: parent $p  change $c"
done

# The summary: quartiles by linear interpolation between order statistics.
printf '%s\n' "${parent_runs[@]}" | paste -d' ' - <(printf '%s\n' "${change_runs[@]}") |
    awk -v better="$better" -v metric="$metric" -v workload="$workload" -v seed="$seed" '
function sort(a, n,    i, j, v) {
    for (i = 1; i < n; i++) {
        v = a[i]
        for (j = i - 1; j >= 0 && a[j] > v; j--) a[j + 1] = a[j]
        a[j + 1] = v
    }
}
function q(a, n, f,    h, lo) {
    h = (n - 1) * f; lo = int(h)
    return lo + 1 < n ? a[lo] + (h - lo) * (a[lo + 1] - a[lo]) : a[lo]
}
{ sp[NR - 1] = $1 + 0; sc[NR - 1] = $2 + 0
  if (better == "lower" ? $2 + 0 < $1 + 0 : $2 + 0 > $1 + 0) wins++
  else if ($2 + 0 != $1 + 0) losses++ }
END {
    n = NR
    sort(sp, n); sort(sc, n)
    pm = q(sp, n, 0.5); cm = q(sc, n, 0.5); iqr = q(sp, n, 0.75) - q(sp, n, 0.25)
    printf "%s %s seed %s (%s is better), %d pairs\n", workload, metric, seed, better, n
    printf "parent: median %g  quartiles %g / %g\n", pm, q(sp, n, 0.25), q(sp, n, 0.75)
    printf "change: median %g  quartiles %g / %g\n", cm, q(sc, n, 0.25), q(sc, n, 0.75)
    printf "change wins %d of %d pairs (%d losses, %d ties)\n", wins, n, losses, n - wins - losses
    gained = (better == "lower" ? pm - cm : cm - pm)
    met = wins >= 0.9 * n && gained > iqr
    printf "claim rule (>= 9/10 wins, median gain %g > parent IQR %g): %s\n", gained, iqr, met ? "met" : "not met"
}'
