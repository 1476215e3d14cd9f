#!/usr/bin/env bash
# Non-test Rust lines per crate: every line of crates/*/src/**/*.rs,
# except each file's `#[cfg(test)] mod tests { ... }` block (the
# attribute, any attributes between it and the `mod tests` line, and
# the block up to its closing `}` in column 0) and every file a
# column-0 `#[cfg(test)] mod name;` declares (with its submodules).
# Takes no options.
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

# The module paths (without `.rs`) that `#[cfg(test)] mod name;` lines
# in the given files declare.
test_modules() {
    for f in "$@"; do
        case "$(basename "$f")" in
            lib.rs | main.rs | mod.rs) parent=$(dirname "$f") ;;
            *) parent=${f%.rs} ;;
        esac
        awk '
            held && /^#\[/ { next }
            held && /^(pub(\([a-z]+\))? )?mod [a-z0-9_]+;$/ {
                sub(/^(pub(\([a-z]+\))? )?mod /, ""); sub(/;$/, ""); print
            }
            { held = ($0 ~ /^#\[cfg\(test\)\]$/) }
        ' "$f" | sed "s|^|$parent/|"
    done
}

total=0
for dir in crates/*/; do
    name=$(basename "$dir")
    files=$(find "$dir/src" -name '*.rs' | sort)
    [ -n "$files" ] || continue
    tests=$(test_modules $files)
    lines=0
    for f in $files; do
        for t in $tests; do
            case "$f" in "$t.rs" | "$t"/*) continue 2 ;; esac
        done
        lines=$((lines + $(count "$f")))
    done
    printf '%-12s %7d\n' "$name" "$lines"
    total=$((total + lines))
done
printf '%-12s %7d\n' total "$total"
