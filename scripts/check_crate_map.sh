#!/usr/bin/env bash
# Fails when DESIGN.md §5's crate map and the tree disagree: a
# `crates/*/src/*.rs` file the map does not list, or a listed file the
# tree does not have. Run from the repository root.
set -euo pipefail

# The map is the tree drawing between "## 5. " and the next heading. Under
# `crates/`, a crate is a branch four spaces in (`├── name/`) and a file a
# branch one level below it (`│   ├── name.rs`, or eight spaces under the
# last crate). Branch glyphs are compared as whole fields so any awk works.
listed=$(awk '
  function branch(f) { return f == "├──" || f == "└──" }
  /^## 5\. /   { on = 1; next }
  on && /^##/  { exit }
  !on          { next }
  { match($0, /^ */); indent = RLENGTH }
  indent == 4 && branch($1) && $2 ~ /\/$/   { crate = substr($2, 1, length($2) - 1); next }
  indent == 4 && $1 == "│" && branch($2)    { file = $3 }
  indent == 8 && branch($1)                 { file = $2 }
  file ~ /\.rs$/ { print "crates/" crate "/src/" file }
  { file = "" }
' DESIGN.md | sort)
in_tree=$(ls crates/*/src/*.rs | sort)

if [ -z "$listed" ]; then
  echo "::error::no crate map found in DESIGN.md §5"
  exit 1
fi
if ! drift=$(diff <(echo "$listed") <(echo "$in_tree")); then
  echo "::error::DESIGN.md §5 crate map is stale ('<' listed but not in the tree, '>' in the tree but not listed):"
  echo "$drift"
  exit 1
fi
echo "DESIGN.md §5 lists all $(echo "$in_tree" | wc -l) files under crates/*/src"
