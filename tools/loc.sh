#!/bin/sh
# Non-test lines per crate: for each crates/<crate>/src/**/*.rs, the lines above the first
# `#[cfg(test)]` whose next line declares a `mod test*` (a bare `#[cfg(test)]` on a
# field or item does not end the count). ROADMAP aim 2's tracked metric; run from the root.
total=0
for crate in core simd parallel cluster repro cli; do
    n=$(find "crates/$crate/src" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { held = 0; done = 0 }
        done { next }
        held { held = 0; if ($0 ~ /^[[:space:]]*(pub(\(crate\))? )?mod test/) { done = 1; next } n++ }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = 1; next }
        { n++ }
        END { print n + 0 }')
    printf '%-9s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-9s %6d\n' total "$total"
