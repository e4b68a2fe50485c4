#!/bin/sh
# The benchmark's committed trajectory: BENCH_perf.json at the repo root.
#
#   scripts/bench_perf.sh            # regenerate BENCH_perf.json
#   scripts/bench_perf.sh --check    # regenerate into a temporary file and
#                                    # fail on any non-`wall` field that
#                                    # differs from the committed one
#
# Builds the benchmark package (crates/bench/src/bin/perf, in
# $CARGO_TARGET_DIR or the package's own target directory) and runs
# `perf --all --seed 42 --seconds 0.001` twice: untraced, then traced
# (`--trace 1`). Per workload the file keeps `attempted`, `failed`,
# `billed`, `dataset_digest` and the three modeled end-to-end metrics
# (from the untraced run), and the traced layer metrics listed in
# TRACED below: the ones that repeated bit for bit over three traced
# runs (model terms, counts and ratios). Everything else the runs
# printed — wall-clock timings, throughputs, `setup_s`, `peak_rss_mb`,
# the commit, `nproc` — goes in the `wall` block, which is recorded and
# never compared. A change that moves a compared field commits the
# regenerated file and says why. Python 3 does the JSON work.
set -eu
cd "$(dirname "$0")/.."
mode=${1:-write}
case $mode in
write | --check) ;;
*)
    sed -n '4,8p' "$0" | sed 's/^# \{0,3\}//' >&2
    exit 2
    ;;
esac
manifest=crates/bench/src/bin/perf/Cargo.toml
target=${CARGO_TARGET_DIR:-crates/bench/src/bin/perf/target}
cargo build --release --quiet --manifest-path "$manifest"
perf=$target/release/perf
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
"$perf" --all --seed 42 --seconds 0.001 --out "$work/e2e" > "$work/e2e.log" 2>&1 ||
    { tail -n 20 "$work/e2e.log" >&2; exit 1; }
"$perf" --all --seed 42 --seconds 0.001 --trace 1 --out "$work/layers" > "$work/layers.log" 2>&1 ||
    { tail -n 20 "$work/layers.log" >&2; exit 1; }
out=BENCH_perf.json
[ "$mode" = write ] || out=$work/BENCH_perf.json

python3 - "$work/e2e/e2e.json" "$work/layers/layers.json" "$out" <<'EOF'
import json, sys

MODELED = ["virtual_s_per_query", "virtual_data_s_per_query", "dollars_per_kquery"]
TRACED = [
    "cache.demotions_per_query", "cache.disk_evictions_per_query",
    "cache.disk_hit_share", "cache.evictions_per_query",
    "cache.fills_per_query", "cache.hit_ratio_bytes",
    "cache.promotions_per_query", "cache.read_arounds",
    "cache.store.fsyncs_per_query", "cache.store.manifest_bytes",
    "cache.store.persisted_mb_per_query", "core.cluster.balance_4n",
    "core.cluster.critical_path_vs_4n", "core.cluster.exchange_mb_4n",
    "core.cost.predict_error_pct", "core.planner.candidates_per_query",
    "core.planner.pick_optimal_fraction", "s3.remote_mb_per_query",
    "s3.requests_per_query", "s3.retries", "select.returned_fraction",
    "select.returned_mb_per_query", "tpch.dataset_columnar_mb",
    "tpch.dataset_csv_mb", "trace.spans", "virtual.cpu_s",
    "virtual.exchange_s", "virtual.local_io_s", "virtual.parse_s",
    "virtual.persist_s", "virtual.request_latency_s", "virtual.s3_scan_s",
    "virtual.startup_s", "virtual.wire_s",
]
e2e, layers, out = (json.load(open(p)) for p in sys.argv[1:3]), None, sys.argv[3]
e2e, layers = list(e2e)
value = lambda metrics, name: metrics[name]["value"]
doc = {"seed": 42, "seconds": 0.001, "workloads": {}, "wall": {"workloads": {}}}
meta = e2e["meta"]
doc["wall"].update(git_commit=meta["git_commit"], nproc=meta["nproc"])
traced = {w["workload"]: w for w in layers["workloads"]}
for w in e2e["workloads"]:
    name, t = w["workload"], traced[w["workload"]]
    doc["workloads"][name] = {
        "attempted": w["samples"],
        "failed": w["failed"],
        "billed": w["billed"],
        "dataset_digest": w["dataset_digest"],
        "modeled": {m: value(w["metrics"], m) for m in MODELED},
        "traced": {m: value(t["metrics"], m) for m in TRACED},
    }
    wall = {m: value(w["metrics"], m) for m in w["metrics"] if m not in MODELED}
    wall.update((m, value(w["unbounded"], m)) for m in w["unbounded"])
    wall.update(
        ("traced." + m, value(t["metrics"], m)) for m in t["metrics"] if m not in TRACED
    )
    wall.update(scan_threads=w["scan_threads"], timed_s=w["timed_s"])
    doc["wall"]["workloads"][name] = wall
with open(out, "w") as f:
    json.dump(doc, f, indent=1, sort_keys=True)
    f.write("\n")
EOF

[ "$mode" = write ] && exit 0
python3 - BENCH_perf.json "$out" <<'EOF'
import json, sys

old, new = (json.load(open(p)) for p in sys.argv[1:])
old.pop("wall", None)
new.pop("wall", None)
moved = []
def diff(a, b, path):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            diff(a.get(k), b.get(k), path + [k])
    elif a != b or type(a) is not type(b):
        moved.append(f"{'.'.join(path)}: {a!r} -> {b!r}")
diff(old, new, [])
for line in moved:
    print(line)
print(f"BENCH_perf.json: {len(moved)} compared fields moved")
sys.exit(1 if moved else 0)
EOF
