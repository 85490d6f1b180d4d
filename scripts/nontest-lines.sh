#!/usr/bin/env bash
# Counts non-test source lines: every `.rs` file under `crates/*/src` and
# `src/`, each read up to the first `#[cfg(test)]` that opens a `mod` (other
# attributes may stand between the two). Blank and comment lines count; a
# `#[cfg(test)]` on anything but a module does not end the count.
#
# Usage: scripts/nontest-lines.sh [ROOT]   (ROOT defaults to the repository)
# Prints one line per file (`lines path`), then `total N`.
set -euo pipefail
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"
find crates/*/src src -name '*.rs' | LC_ALL=C sort | xargs awk '
    function report() { printf "%d %s\n", kept + held, file; total += kept + held }
    FNR == 1 { if (NR > 1) report(); file = FILENAME; kept = 0; held = 0; done = 0 }
    done { next }
    held && /^[[:space:]]*#\[/ { held += 1; next }
    held && /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]/ { held = 0; done = 1; next }
    held { kept += held; held = 0 }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = 1; next }
    { kept += 1 }
    END { report(); printf "total %d\n", total }
'
