#!/usr/bin/env bash
# Panic audit: per crate under crates/, the number of `unwrap(`,
# `expect(`, `panic!` and `unreachable!` in code that is not test code.
#
#   scripts/panic_audit.sh          print one `crate count` line per crate
#   scripts/panic_audit.sh --check  compare with scripts/panic_audit.txt;
#                                   fail if any crate's count rose
#
# Test code is what `#[cfg(test)]` guards: the item after the attribute
# (an inline module up to its closing brace, or one line), and every
# file loaded by a `#[cfg(test)] mod name;` declaration. Comment lines
# are skipped. Run from the repo root.
set -euo pipefail

pattern='unwrap\(|expect\(|panic!|unreachable!'

# Files that a `#[cfg(test)] mod name;` loads: `name.rs` or
# `name/mod.rs`, beside a lib.rs / mod.rs, else in the declaring file's
# own directory (`foo.rs` -> `foo/name.rs`).
test_only_files() {
  grep -rn -A1 '^[[:space:]]*#\[cfg(test)\]' crates/*/src --include='*.rs' |
    sed -nE 's/^(.*\.rs)-[0-9]+-[[:space:]]*(pub(\([a-z]+\))? )?mod ([a-z_0-9]+);.*$/\1 \4/p' |
    while read -r file name; do
      case "$(basename "$file")" in
        lib.rs | main.rs | mod.rs) dir="$(dirname "$file")" ;;
        *) dir="${file%.rs}" ;;
      esac
      for candidate in "$dir/$name.rs" "$dir/$name/mod.rs"; do
        if [ -f "$candidate" ]; then echo "$candidate"; fi
      done
    done
}

# The lines of `$1` outside `#[cfg(test)]` items and comments.
non_test_lines() {
  awk '
    skipping == 0 && /^[[:space:]]*#\[cfg\(test\)\]/ { skipping = 1; depth = 0; next }
    skipping == 1 {
      opens = gsub(/\{/, "{"); closes = gsub(/\}/, "}")
      depth += opens - closes
      if (opens > 0) { skipping = 2 } else if ($0 ~ /;[[:space:]]*$/) { skipping = 0 }
      if (skipping == 2 && depth <= 0) { skipping = 0 }
      next
    }
    skipping == 2 {
      depth += gsub(/\{/, "{") - gsub(/\}/, "}")
      if (depth <= 0) { skipping = 0 }
      next
    }
    /^[[:space:]]*\/\// { next }
    { print }
  ' "$1"
}

counts() {
  local skip
  skip="$(test_only_files | sort -u)"
  for crate in crates/*/; do
    crate="${crate%/}"
    local total=0
    while IFS= read -r file; do
      if grep -qxF "$file" <<< "$skip"; then
        continue
      fi
      local n
      n="$(non_test_lines "$file" | { grep -oE "$pattern" || true; } | wc -l)"
      total=$((total + n))
    done < <(find "$crate/src" -name '*.rs' | sort)
    echo "$(basename "$crate") $total"
  done
}

if [ "${1:-}" = "--check" ]; then
  fresh="$(counts)"
  status=0
  while read -r crate count; do
    allowed="$(awk -v c="$crate" '$1 == c { print $2 }' scripts/panic_audit.txt)"
    if [ -z "$allowed" ]; then
      echo "panic audit: crate $crate has no line in scripts/panic_audit.txt" >&2
      status=1
    elif [ "$count" -gt "$allowed" ]; then
      echo "panic audit: $crate has $count unwrap/expect/panic!/unreachable!, up from $allowed" >&2
      status=1
    elif [ "$count" -lt "$allowed" ]; then
      echo "panic audit: $crate is down to $count from $allowed; lower its line in scripts/panic_audit.txt"
    fi
  done <<< "$fresh"
  exit $status
fi
counts
