#!/bin/sh
# Build the benchmark from source and run it; the arguments go to `run`.
# Run from the repository root:
#
#   sh benchmark/run.sh --workload index-si-paged --seed 7 --seconds 15 --trace 0
#
# --root . keeps dune from adopting a project in a parent directory, and
# the shared build cache is off, so the build writes only under _build.
exec dune exec --root . --display quiet --cache disabled ./benchmark/main.exe -- run "$@"
