#!/bin/sh
# Code size, by the rule size claims in CHANGES.md use: for every Rust
# file under crates/*/src and src/ (the offline shims and the perf
# package excluded), the lines above the first `#[cfg(test)]` (or
# `#![cfg(test)]`, a whole-file test module) that are neither blank nor
# start with `//`. Prints one row per file and the total. Run from
# anywhere; takes no arguments.
set -eu
cd "$(dirname "$0")/.."
find crates/*/src src -name '*.rs' \
    -not -path 'crates/shims/*' -not -path 'crates/bench/src/bin/perf/*' |
    sort |
    xargs awk '
        FNR == 1 { if (file != "") emit(); file = FILENAME; n = 0; tests = 0 }
        /^[[:space:]]*#!?\[cfg\(test\)\]/ { tests = 1 }
        !tests && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
        function emit() { printf "%6d %s\n", n, file; total += n }
        END { if (file != "") emit(); printf "%6d total\n", total }
    '
