#!/bin/sh
# Pins every figure bit: recomputes the SHA-256 of each CSV and PGM that
# `repro all --tiny` and `repro all` (Small scale, seed 42) write, and of
# each ablation CSV that `repro ablations --tiny` and `repro ablations`
# write beside them, and compares them with ci/figure-digests.txt. A
# change that moves a figure bit re-records the file in the same diff
# (`--bless`) and says which figures moved and why.
#
#   cargo build --release -p tiv-experiments --bin repro
#   ci/figure-digests.sh            # compare; exit 1 and print the diff on a mismatch
#   ci/figure-digests.sh --bless    # rewrite ci/figure-digests.txt
#
# REPRO names the binary to run (default target/release/repro). Run it
# from the repository root.
set -eu
repro=${REPRO:-target/release/repro}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
"$repro" all --tiny --out "$out/tiny" > /dev/null
"$repro" all --out "$out/small-seed42" > /dev/null
"$repro" ablations --tiny --out "$out/tiny" > /dev/null
"$repro" ablations --out "$out/small-seed42" > /dev/null
(cd "$out" && LC_ALL=C sha256sum tiny/* small-seed42/*) > "$out/digests.txt"
if [ "${1:-}" = --bless ]; then
  cp "$out/digests.txt" ci/figure-digests.txt
  echo "recorded $(wc -l < ci/figure-digests.txt) figure digests"
elif diff -u ci/figure-digests.txt "$out/digests.txt"; then
  echo "all $(wc -l < ci/figure-digests.txt) figure digests match"
else
  echo "figure bits moved (diff above): re-record with --bless only if the change means to move them"
  exit 1
fi
