#!/usr/bin/env bash
# Non-test Rust lines per crate: every line of crates/*/src/**/*.rs,
# except each file's `#[cfg(test)] mod tests { ... }` block (the
# attribute, any attributes between it and the `mod tests` line, and
# the block up to its closing `}` in column 0). Takes no options.
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    awk '
        skip { if ($0 ~ /^}/) skip = 0; next }
        held != "" {
            if ($0 ~ /^#\[/) { held = held "\n" $0; next }
            if ($0 ~ /^(pub(\([a-z]+\))? )?mod tests \{/) { held = ""; skip = 1; next }
            n += split(held, _, "\n"); held = ""
        }
        /^#\[cfg\(test\)\]$/ { held = $0; next }
        { n++ }
        END { if (held != "") n += split(held, _, "\n"); print n + 0 }
    ' "$@"
}

total=0
for dir in crates/*/; do
    name=$(basename "$dir")
    files=$(find "$dir/src" -name '*.rs' | sort)
    [ -n "$files" ] || continue
    lines=0
    for f in $files; do
        lines=$((lines + $(count "$f")))
    done
    printf '%-12s %7d\n' "$name" "$lines"
    total=$((total + lines))
done
printf '%-12s %7d\n' total "$total"
