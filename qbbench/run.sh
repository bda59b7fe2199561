#!/usr/bin/env bash
# Builds qbbench from the checkout it is started in, then runs it:
#
#   bash qbbench/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
#
# Run it from the repository root.  The build flags keep the program's speed
# from hanging on where the checkout lies or on unrelated code moving:
#
# - --remap-path-prefix replaces the checkout's path in the source paths
#   compiled into the binary, so checkouts at different paths compile the
#   same paths in.  Otherwise a longer path lengthens some instructions and
#   every later function moves: on a 2-core Xeon VM, two builds of the same
#   code from checkouts at different paths differed by 16 to 22% in
#   tcp-uniform throughput.
# - On x86-64, 64-byte function alignment and keeping jumps off 32-byte
#   boundaries stop a change in one function from moving the alignment of
#   the loops in all the others.  With these flags the gap between two
#   such builds fell into the host's own run-to-run noise.  Symbol order
#   still follows the checkout path, through the package ids.
set -euo pipefail

root=$(pwd)
flags=("--remap-path-prefix=$root=/checkout")
if [ "$(uname -m)" = x86_64 ]; then
    flags+=(-Cllvm-args=-align-all-functions=6 -Cllvm-args=-x86-branches-within-32B-boundaries)
fi
CARGO_ENCODED_RUSTFLAGS=$(IFS=$'\x1f'; echo "${flags[*]}")
export CARGO_ENCODED_RUSTFLAGS

exec cargo run --release --offline --quiet --manifest-path qbbench/Cargo.toml --bin qbbench -- "$@"
