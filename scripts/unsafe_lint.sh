#!/usr/bin/env bash
# Unsafe-confinement lint.
#
# Two vendored crates hold all of the workspace's `unsafe`, each behind a
# safe API: `vendor/polling_mini` (the raw epoll / eventfd / socket calls of
# the net stack) and `vendor/sha2` (the SHA-NI compression kernel, in its
# private `shani` module). Everything else is safe Rust, and every
# `crates/*` library root says so with `#![forbid(unsafe_code)]`.
#
# This lint fails when
#   * `unsafe` code appears in a Rust file outside those two crates, or
#   * a `crates/*/src/lib.rs` lacks `#![forbid(unsafe_code)]`.
#
# The only exemptions are the counting global allocators that measure
# allocations (`tests/obs_alloc.rs`, `crates/bench/src/bin/bench_net.rs`):
# implementing `GlobalAlloc` is unsafe by the trait's definition. Mentions
# of the `unsafe_code` lint name and comment lines are not code and pass.
#
# Run from anywhere; CI runs it as a build-test step.
set -euo pipefail
cd "$(dirname "$0")/.."

SOURCES=(src crates tests examples vendor perfbench/src)
ALLOWED_CRATES=(vendor/polling_mini vendor/sha2)
ALLOCATOR_FILES=(tests/obs_alloc.rs crates/bench/src/bin/bench_net.rs)

fail=0
while IFS=: read -r file line text; do
    [[ -z "${file:-}" ]] && continue
    for dir in "${ALLOWED_CRATES[@]}"; do
        [[ "$file" == "$dir/"* ]] && continue 2
    done
    for allowed in "${ALLOCATOR_FILES[@]}"; do
        [[ "$file" == "$allowed" ]] && continue 2
    done
    code="${text%%//*}"
    [[ "$code" =~ (^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$) ]] || continue
    echo "unsafe-lint: $file:$line: $text" >&2
    fail=1
done < <(grep -rn -w --include='*.rs' 'unsafe' "${SOURCES[@]}" || true)

for lib in crates/*/src/lib.rs; do
    if ! grep -q '^#!\[forbid(unsafe_code)\]' "$lib"; then
        echo "unsafe-lint: $lib: missing #![forbid(unsafe_code)]" >&2
        fail=1
    fi
done

if (( fail )); then
    cat >&2 <<'EOF'

`unsafe` is confined to vendor/polling_mini and vendor/sha2, and every
crates/* library root must carry #![forbid(unsafe_code)]. Put new unsafe
code behind a safe API in one of those crates instead.
EOF
    exit 1
fi
echo "unsafe lint: clean (unsafe only in ${ALLOWED_CRATES[*]})"
