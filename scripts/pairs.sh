#!/usr/bin/env bash
# Paired benchmark runs: parent commit against the working tree, the
# protocol every performance claim, and every no-regression report, here
# rests on.
#
#   scripts/pairs.sh <parent-rev> <workload> <metric | all> [seed] [pairs]
#
# Builds the benchmark package (crates/bench/src/bin/perf) twice, from
# `git archive <parent-rev>` and from a copy of the working tree's
# tracked and untracked, not ignored, files, each in its own directory
# and target directory under $TMPDIR (default /tmp), then runs
# `perf --workload <workload> --seed <seed>` (default seed 42, 10 pairs)
# at the benchmark's default length, the two sides alternating and
# alternating which side of a pair runs first. Prints every run, then per
# metric each side's median and quartiles, how many pairs the change won
# (ties count for neither side), whether the claim rule holds — the
# change wins at least nine tenths of the pairs and the medians differ by
# more than the parent's quartile distance — and, for an end-to-end
# metric, the no-regression verdict against its bound: "no worse than
# its bound"; "worse than its bound" when the change's median is worse
# than the parent's by more than the bound (a fraction of the parent's
# median); "unresolved" when the parent's quartile distance is wider
# than the bound — unless every change run beats every parent run. `all`
# reports every end-to-end metric from the same runs. Whether lower or
# higher is better, and the bounds, are read from BENCHMARK.json. Each
# run's whole output is kept under $TMPDIR/pairs/logs/, so the other
# metrics of the same runs can be read too. The builds are kept and
# reused by the next call (the parent's per revision, the working tree's
# refreshed each call).
set -euo pipefail

if [ $# -lt 3 ]; then
    sed -n '6,7p' "$0" | sed 's/^# \{0,3\}//' >&2
    exit 2
fi
parent=$1 workload=$2 metric=$3 seed=${4:-42} pairs=${5:-10}
root=$(git rev-parse --show-toplevel)
cd "$root"
rev=$(git rev-parse --verify "$parent^{commit}")
base=${TMPDIR:-/tmp}/pairs
manifest=crates/bench/src/bin/perf/Cargo.toml

# `name better bound` per metric reported; the bound is empty for a
# metric outside `end_to_end`.
end_to_end=$(sed -n '/"end_to_end"/,/\]/p' BENCHMARK.json)
field() { sed -n "s/.*\"$1\": \"\{0,1\}\([^\",}]*\).*/\1/p"; }
describe() {
    local line
    line=$(grep -o "{\"name\": \"$1\"[^}]*}" BENCHMARK.json | head -n 1)
    [ -n "$line" ] || return 1
    echo "$1 $(field better <<<"$line") $(grep -F "\"$1\"" <<<"$end_to_end" | field bound)"
}
if [ "$metric" = all ]; then
    names=$(grep -o '"name": "[^"]*"' <<<"$end_to_end" | sed 's/"name": "\(.*\)"/\1/')
else
    names=$metric
fi
specs=()
for name in $names; do
    if ! spec=$(describe "$name"); then
        echo "pairs.sh: BENCHMARK.json names no metric \`$name\`" >&2
        exit 2
    fi
    specs+=("$spec")
done

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

# run <side> <binary> <pair>: one run, its output kept in its log.
log_of() { echo "$logs/$workload-seed$seed-$1-$2.txt"; }
run() {
    local out
    out=$(mktemp -d "$base/run.XXXXXX")
    "$2" --workload "$workload" --seed "$seed" --out "$out" >"$(log_of "$1" "$3")"
    rm -rf "$out"
}
# value <side> <pair> <metric>: the metric's value in that run.
value() {
    awk -v w="$workload" -v m="$3" '$1 == w && $2 == m { print $3 }' "$(log_of "$1" "$2")"
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        run parent "$bin_parent" $i
        run change "$bin_change" $i
    else
        run change "$bin_change" $i
        run parent "$bin_parent" $i
    fi
    line="pair $i:"
    for spec in "${specs[@]}"; do
        read -r name _ _ <<<"$spec"
        p=$(value parent $i "$name") c=$(value change $i "$name")
        if [ -z "$p" ] || [ -z "$c" ]; then
            echo "pairs.sh: a run printed no \`$name\` for \`$workload\`" >&2
            exit 1
        fi
        line+=" $name parent $p change $c;"
    done
    echo "${line%;}"
done

# The summary per metric: quartiles by linear interpolation between order
# statistics.
for spec in "${specs[@]}"; do
    read -r name better bound <<<"$spec"
    echo
    for ((i = 1; i <= pairs; i++)); do
        echo "$(value parent $i "$name") $(value change $i "$name")"
    done | awk -v better="$better" -v bound="$bound" -v metric="$name" \
        -v workload="$workload" -v seed="$seed" '
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
function abs(x) { return x < 0 ? -x : x }
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
    if (bound == "") exit
    # Every change run better than every parent run.
    apart = (better == "lower" ? sc[n - 1] < sp[0] : sc[0] > sp[n - 1])
    allowed = bound * abs(pm)
    if (apart) verdict = "no worse than its bound (every change run is better)"
    else if (-gained > allowed) verdict = "worse than its bound"
    else if (iqr > allowed) verdict = "unresolved (parent IQR wider than the bound)"
    else verdict = "no worse than its bound"
    printf "bound %g of the parent median (%g): %s\n", bound, allowed, verdict
}'
done
