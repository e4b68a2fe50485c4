#!/bin/sh
# Which golden fields a change moved. For every
# tests/golden/planner_equivalence/*.txt and tests/golden/paper_figures.txt,
# compares the file at <rev> with the worktree, pairing lines by their
# first `|`-field (the run's key), and prints per file how many lines
# moved in each `|`-field — by its name where it has one (`cands`, `ops`,
# `phases`, `rows`, `billed`, a figure's columns; a planner_equivalence
# line's second field, the plan it ran, is its `pick`), else by its
# position — and how many lines were added or removed. Then, per file,
# each key whose pick moved, as `key: old → new` (the first 10).
# Informational: always exits 0.
#
# Usage: scripts/golden_diff.sh <rev>
set -u
cd "$(dirname "$0")/.." || exit 0
rev=${1:-HEAD}
old=$(mktemp) || exit 0
files=$( (
    git ls-tree -r --name-only "$rev" -- tests/golden 2>/dev/null
    ls tests/golden/planner_equivalence/*.txt tests/golden/paper_figures.txt 2>/dev/null
) | grep -E '^tests/golden/(planner_equivalence/[^/]*\.txt|paper_figures\.txt)$' | sort -u)
[ -n "$files" ] || echo "no golden files at $rev or in the worktree"
for f in $files; do
    if ! git show "$rev:$f" > "$old" 2>/dev/null; then
        echo "$f: not at $rev"
        continue
    fi
    if [ ! -f "$f" ]; then
        echo "$f: removed since $rev"
        continue
    fi
    awk -v file="$f" '
        function name(field, i) {
            if (i == 2 && file ~ /planner_equivalence/)
                return "pick"
            if (match(field, /^[A-Za-z][A-Za-z0-9_ -]*:/))
                return substr(field, 1, RLENGTH - 1)
            return "field " i
        }
        function count(field, i) {
            if (!(field in moved)) { names[++nnames] = field; moved[field] = 0 }
            if (i) moved[field]++
        }
        {
            side = FILENAME == ARGV[1] ? 1 : 2
            n = split($0, f, / \| /)
            key = f[1]
            key = key SUBSEP (++seen[side, key])
            if (side == 1) { before[key] = $0; next }
            lines++
            if (!(key in before)) { added++; next }
            matched[key] = 1
            m = split(before[key], g, / \| /)
            width = n > m ? n : m
            changed = 0
            for (i = 2; i <= width; i++) {
                label = name(i <= n ? f[i] : g[i], i)
                count(label, f[i] != g[i])
                if (f[i] != g[i]) changed = 1
                if (label == "pick" && f[i] != g[i] && ++picks <= 10)
                    pick[picks] = f[1] ": " g[i] " → " f[i]
            }
            total += changed
        }
        END {
            for (key in before) if (!(key in matched)) removed++
            printf "%s: %d lines, %d moved (", file, lines, total
            for (i = 1; i <= nnames; i++)
                printf "%s%s %d", (i > 1 ? ", " : ""), names[i], moved[names[i]]
            printf "), %d added, %d removed\n", added, removed
            for (i = 1; i <= picks && i <= 10; i++)
                printf "  %s\n", pick[i]
            if (picks > 10)
                printf "  ... %d more picks moved\n", picks - 10
        }
    ' "$old" "$f"
done
rm -f "$old"
exit 0
