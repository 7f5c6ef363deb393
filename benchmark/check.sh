#!/usr/bin/env bash
# Lint and test the benchmark package, then run the smoke benchmark twice
# and require every deterministic value (digests, counts, quality metrics)
# to be identical between the two runs.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo fmt --manifest-path "$manifest" --check
cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --offline --manifest-path "$manifest"

bench() {
    cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"
}
for run in a b; do
    bench --smoke --seed 1
    mv benchmark/out/results.json "benchmark/out/smoke-$run.json"
done
bench --compare benchmark/out/smoke-a.json benchmark/out/smoke-b.json --exact
