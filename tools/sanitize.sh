#!/bin/sh
# Sanitizer run: configure build-<mode> with -DSIMALPHA_SANITIZE=<mode>
# (address, undefined or thread; CMake rejects anything else), build
# it, and run ctest there with the remaining arguments, e.g.
#   tools/sanitize.sh address -L "unit|fault|proc|store|serve|fleet"
#   tools/sanitize.sh undefined -L "unit|fault|store|serve"
#   tools/sanitize.sh thread -L "fleet|serve"
set -e
mode=${1:?usage: tools/sanitize.sh <address|undefined|thread> [ctest args]}
shift
cd "$(dirname "$0")/.."
cmake -B "build-$mode" -S . -DSIMALPHA_SANITIZE="$mode"
cmake --build "build-$mode" -j
cd "build-$mode"
ctest --output-on-failure "$@"
