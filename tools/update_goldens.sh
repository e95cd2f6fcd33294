#!/bin/sh
# Regenerate the golden-stats JSON files under tests/goldens/.
#
# Run this after an *intentional* simulator behaviour change, review the
# resulting diff (every changed counter should be explainable by your
# change), and commit the JSON files together with the code.
#
# Usage: tools/update_goldens.sh [build-dir]   (default: build)
set -eu

cd "$(dirname "$0")/.."
build="${1:-build}"

for t in test_golden test_sampling; do
    if [ ! -x "$build/tests/$t" ]; then
        echo "error: $build/tests/$t not built." >&2
        echo "  cmake -B $build -S . && cmake --build $build -j" >&2
        exit 1
    fi
done

BERTI_UPDATE_GOLDENS=1 "$build/tests/test_golden" \
    --gtest_filter='Matrix/GoldenTest.*:Matrix/MixGoldenTest.*'

# The sampled-interval sidecars (*.sampled.json) live in the same
# directory and regenerate the same way.
BERTI_UPDATE_GOLDENS=1 "$build/tests/test_sampling" \
    --gtest_filter='Matrix/SampledGoldenTest.*'

echo "goldens updated:"
git status --short tests/goldens/ || ls tests/goldens/
