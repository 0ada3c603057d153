#!/usr/bin/env bash
# The name search of DESIGN.md §3, run from the repository root.
#
# Prints every `pub` fn/const of a library crate whose identifier appears
# in no file outside the crate, and every `pub mod` or crate-root
# re-export that no outside path (`lems_<crate>::<name>` or
# `lems::<crate>::<name>`) names. Exits 1 when that list is not exactly
# the exceptions DESIGN.md §3 documents, so a new `pub fn` nobody calls
# cannot land between two compiler-checked passes.
set -u

expected='lems-sim: pool
lems-net: dijkstra
lems-syntax: connection_cost_with_channel
lems-syntax: remove_host
lems-syntax: remove_server
lems-attr: edit_distance
lems-attr: eval
lems-attr: soundex
lems-attr: fuzzy'

search() {
  for c in sim net core store syntax locindep mst attr obs check; do
    out="src tests examples benchmark/src crates/$c/tests crates/obs/src/bin crates/check/src/main.rs
         $(ls -d crates/*/ | grep -v "^crates/$c/$") $(find . -name clippy.toml -not -path './target/*')"
    grep -rhE '^\s*pub (const )?(fn|const|static) \w+' crates/$c/src --include=*.rs \
      | sed -E 's/.*(fn|const|static) (\w+).*/\2/' | sort -u | while read -r n; do
      grep -rqsw --include=*.rs --include=clippy.toml "$n" $out || echo "lems-$c: $n"
    done
    { sed -nE 's/^pub mod (\w+).*/\1/p' crates/$c/src/lib.rs
      sed -n '/^pub use/,/;/p' crates/$c/src/lib.rs | tr -d '\n' | sed -E 's/pub use \w+::/\n/g' \
        | tr -d '{}; ' | tr ',' '\n'; } | grep . | while read -r n; do
      grep -rqszP --include=*.rs --include=clippy.toml "lems(_$c|::$c)::(\{([^}]*\W)?)?$n\b" $out \
        || echo "lems-$c: $n"
    done
  done
}

actual=$(search)
echo "$actual"
if [ "$actual" != "$expected" ]; then
  echo "public surface: the list above is not DESIGN.md §3's exceptions:" >&2
  diff <(echo "$expected") <(echo "$actual") >&2 || true
  exit 1
fi
