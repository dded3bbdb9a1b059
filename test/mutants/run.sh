#!/usr/bin/env bash
# The mutant kill list.  Each test/mutants/*.patch is a deliberate bug
# with a "Target:" header line naming the test (an argument to
# `dune test`) that must catch it.  For each patch this script copies the
# source tree to a temporary directory, applies the patch there with
# `patch -p1`, builds, and runs the target: the mutant is killed when the
# target fails.  Each target runs under a 600 s limit: a mutant that makes
# its target loop is killed there and reported as "(timed out)", and
# `timeout` signals the target's whole process group, so nothing of it
# keeps running.  Exits 1 if a patch no longer applies or builds, or if
# a mutant survives.
#
#   bash test/mutants/run.sh                      # every patch
#   bash test/mutants/run.sh eq-fallback.patch    # one patch
set -uo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
cd "$here" || exit 1
if [ $# -gt 0 ]; then patches=("$@"); else patches=(*.patch); fi
status=0
for p in "${patches[@]}"; do
  target=$(sed -n 's/^Target: //p' "$p" | head -n 1)
  if [ -z "$target" ]; then
    echo "$p: no Target: line"; status=1; continue
  fi
  tmp=$(mktemp -d)
  (cd "$root" && tar --exclude=./_build --exclude=./.git --exclude=./.perfbench -cf - .) \
    | tar -xf - -C "$tmp"
  if ! patch -s -p1 -d "$tmp" < "$p"; then
    echo "$p: does not apply"; status=1
  elif ! (cd "$tmp" && dune build 2> build.log); then
    echo "$p: does not build"; cat "$tmp/build.log"; status=1
  else
    (cd "$tmp" && timeout --kill-after=30 600 dune test "$target" > test.log 2>&1)
    code=$?
    if [ "$code" -eq 0 ]; then
      echo "$p: SURVIVED ($target passed)"; status=1
    elif [ "$code" -eq 124 ] || [ "$code" -eq 137 ]; then
      echo "$p: killed by $target (timed out)"
    else
      echo "$p: killed by $target"
    fi
  fi
  rm -rf "$tmp"
done
exit "$status"
