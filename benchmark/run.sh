#!/usr/bin/env bash
# The repo benchmark's one command: build, then run.
#
#   benchmark/run.sh [--seed N] [--workload W]... [--traced] [--repeat N]
#   benchmark/run.sh --check | --regen-golden
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# The last form is one run of one workload; its last stdout line is the
# result JSON (see BENCHMARK.json and README.md). Everything is built
# from source, offline, into $CARGO_TARGET_DIR (default benchmark/target).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# Build-parity guard: the benchmark is its own workspace, so its release
# profile is its own too. It must equal the root's, or the benchmark
# measures different codegen than users of the workspace get.
profile() {
    awk '/^\[/{on = ($0 == "[profile.release]")} on && /=/{gsub(/[ \t]/, ""); print}' "$1" | sort
}
if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates" ]; then
    echo "run.sh: $root is not the stencil workspace (no Cargo.toml / crates/); nothing to measure" >&2
    exit 3
fi
if [ "$(profile "$here/Cargo.toml")" != "$(profile "$root/Cargo.toml")" ]; then
    echo "run.sh: [profile.release] of benchmark/Cargo.toml differs from the root manifest's:" >&2
    diff <(profile "$root/Cargo.toml") <(profile "$here/Cargo.toml") >&2 || true
    exit 3
fi

target="${CARGO_TARGET_DIR:-$here/target}"
# Build output goes to stderr so stdout stays the benchmark's own.
CARGO_TARGET_DIR="$target" cargo build --release --offline --locked \
    --manifest-path "$here/Cargo.toml" >&2

commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$target/release/stencil-benchmark" \
    --bench-dir "$here" --commit "$commit" --rustc "$(rustc -V)" "$@"
