#!/bin/sh
# Dead public surface: the `pub` items (fn, struct, enum, trait, type,
# const, static) declared in a Rust file under crates/*/src (the offline
# shims and the perf package excluded), above its first `#[cfg(test)]`,
# whose name no code mentions but their own declaration and their own
# file's test module. Every Rust file of the repo outside a build
# directory counts as a caller (tests, examples, benches, the perf
# package); `//` comments do not. Names on the "Frozen engine surface"
# list of crates/bench/src/bin/perf/README.md are skipped. A name is
# matched as a word, so an item sharing its name with another (`new`,
# `len`) is never listed: the report errs toward silence. Prints
# `file:line name` per item and the count; always exits 0. Run from
# anywhere; takes no arguments.
set -eu
cd "$(dirname "$0")/.."
frozen=$(awk '/^## Frozen engine surface/ { on = 1; next } /^## / { on = 0 } on' \
    crates/bench/src/bin/perf/README.md)
find crates src tests examples -name '*.rs' -not -path '*/target/*' | sort |
    xargs awk -v frozen="$frozen" '
        BEGIN {
            gsub(/[^A-Za-z0-9_]+/, " ", frozen)
            n = split(frozen, f, " ")
            for (i = 1; i <= n; i++) skip[f[i]] = 1
        }
        FNR == 1 { tests = 0 }
        /^[[:space:]]*#!?\[cfg\(test\)\]/ { tests = 1 }
        {
            line = $0
            sub(/\/\/.*/, "", line)
            declared = ""
            if (!tests && FILENAME ~ /^crates\/[^/]+\/src\// \
                && FILENAME !~ /^crates\/(shims|bench\/src\/bin\/perf)\// \
                && match(line, /^[[:space:]]*pub (unsafe |const |async )?(fn|struct|enum|trait|type|const|static) [A-Za-z0-9_]+/)) {
                declared = substr(line, RSTART, RLENGTH)
                sub(/.* /, "", declared)
                decls[++d] = FILENAME ":" FNR " " declared
                home[d] = FILENAME
                name[d] = declared
            }
            gsub(/[^A-Za-z0-9_]+/, " ", line)
            m = split(line, w, " ")
            for (i = 1; i <= m; i++) {
                if (w[i] == declared) { declared = ""; continue }
                uses[w[i]]++
                if (tests) in_tests[FILENAME, w[i]]++
            }
        }
        END {
            dead = 0
            for (i = 1; i <= d; i++) {
                if (name[i] in skip) continue
                if (uses[name[i]] - in_tests[home[i], name[i]] > 0) continue
                print decls[i]
                dead++
            }
            printf "%d pub items with no caller\n", dead
        }
    '
