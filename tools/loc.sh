#!/bin/sh
# Non-test lines per crate: for each crates/<crate>/src/**/*.rs, the lines above the first
# `#[cfg(test)]` whose next line declares a `mod test*` (a bare `#[cfg(test)]` on a
# field or item does not end the count). ROADMAP aim 2's tracked metric; run from the root.
#
# `tools/loc.sh --check` is the ratchet: it also diffs the table against the committed
# tools/loc.baseline and exits 1 when the total grew. A change that must grow the total,
# and every change that shrinks it, commits the new table (`tools/loc.sh > tools/loc.baseline`),
# so the size of each step is a reviewed line.
total=0
table=$(
    for crate in core simd parallel cluster repro cli align obs xmpi; do
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
)
printf '%s\n' "$table"
[ "$1" = --check ] || exit 0
baseline=tools/loc.baseline
printf '%s\n' "$table" | diff "$baseline" - && exit 0
was=$(awk '$1 == "total" { print $2 }' "$baseline")
now=$(printf '%s\n' "$table" | awk '$1 == "total" { print $2 }')
if [ "$now" -gt "$was" ]; then
    echo "non-test lines grew: $was -> $now (a change that must grow commits the new $baseline)" >&2
    exit 1
fi
echo "non-test lines shrank: $was -> $now; record it with: tools/loc.sh > $baseline" >&2
