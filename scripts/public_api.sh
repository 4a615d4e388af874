#!/usr/bin/env sh
# The stated public surface: every `pub` mod, use, fn, struct, enum, trait,
# type, const and static under `crates/*/src` and `src/`, outside `mod tests`
# and `#[cfg(test)]` items, one `file: kind name` line each, sorted. Line
# numbers are left out so that moving code does not churn the list; a name
# declared twice in one file (two `new`s) is listed twice.
#
#   scripts/public_api.sh > PUBLIC_API.txt
set -eu
cd "$(dirname "$0")/.."
awk '
FNR == 1 { skip = ""; test = 0; use = "" }
skip != "" { if ($0 == skip "}") skip = ""; next }
/^[ \t]*mod tests \{/ { match($0, /^[ \t]*/); skip = substr($0, 1, RLENGTH); test = 0; next }
/^[ \t]*#\[cfg\(test\)\]/ { test = 1; next }
/^[ \t]*(#\[|\/\/)/ { next }
use != "" || /^[ \t]*pub use / {
    use = use $0; if (use !~ /;/) next
    s = use; use = ""; if (test) { test = 0; next }
    sub(/^[ \t]*pub use /, "", s); sub(/;.*/, "", s); sub(/^[^{]*\{/, "", s); sub(/\}.*/, "", s)
    n = split(s, part, ",")
    for (i = 1; i <= n; i++) {
        p = part[i]; gsub(/^[ \t]+|[ \t]+$/, "", p); if (p == "") continue
        if (p ~ / as /) sub(/.* as /, "", p); else sub(/.*::/, "", p)
        print FILENAME ": use " p
    }
    next
}
{ t = test; test = 0 }
t { next }
match($0, /^[ \t]*pub ((const|unsafe|async) )*fn [A-Za-z0-9_]+/) { s = substr($0, RSTART, RLENGTH); sub(/.* /, "", s); print FILENAME ": fn " s; next }
match($0, /^[ \t]*pub (mod|struct|enum|trait|type|const|static) [A-Za-z0-9_]+/) { s = substr($0, RSTART, RLENGTH); sub(/^[ \t]*pub /, "", s); print FILENAME ": " s }
' crates/*/src/*.rs crates/*/src/*/*.rs src/*.rs | sort
