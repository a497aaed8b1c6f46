#!/bin/sh
# Mutation matrix: each one-hunk patch under scripts/mutants/ is a
# mutant, a deliberate bug. For each, copy the working tree to a
# temporary directory, apply the patch there, run the patched package's
# tests and the root package's, and print the tests that fail: the ones
# that kill the mutant. A mutant no test kills survives and fails the
# run, as does a patch that no longer applies or a mutant that does not
# build. The first line of a patch file says what the mutant breaks; a
# header line "Also tested in: PKG..." adds packages whose tests run too.
# Used by `make mutants` and CI's fuzz job.
set -eu

root=$(pwd)
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT INT TERM

survived=0
for patchfile in "$root"/scripts/mutants/*.patch; do
    name=$(basename "$patchfile" .patch)
    file=$(sed -n 's|^+++ b/||p' "$patchfile" | head -n 1)
    pkg=./$(dirname "$file")
    tree="$workdir/$name"
    mkdir "$tree"
    tar -C "$root" --exclude=./.git --exclude=./bin -cf - . | tar -C "$tree" -xf -
    if ! (cd "$tree" && patch -p1 -s --fuzz=0 <"$patchfile"); then
        echo "mutants: $name: patch does not apply to $file"
        exit 1
    fi
    pkgs="$pkg"
    if [ "$pkg" != "./." ]; then
        pkgs="$pkg ."
    fi
    pkgs="$pkgs $(sed -n '/^--- /q; s/^Also tested in: //p' "$patchfile")"
    # shellcheck disable=SC2086 # pkgs is a list of package paths
    (cd "$tree" && go test -count=1 -v $pkgs >"$workdir/$name.log" 2>&1) || true
    if grep -q '^FAIL.*\[build failed\]\|^FAIL.*\[setup failed\]' "$workdir/$name.log"; then
        cat "$workdir/$name.log"
        echo "mutants: $name: the mutant does not build"
        exit 1
    fi
    # The failing tests by package, each subtest standing for its parent.
    kills=$(awk '
        /^ *--- FAIL: / { n++; name[n] = $3 }
        /^(ok|FAIL)[ \t]+ecosched/ {
            line = ""
            for (i = 1; i <= n; i++) {
                parent = 0
                for (j = 1; j <= n; j++)
                    if (index(name[j], name[i] "/") == 1) parent = 1
                if (!parent) line = line " " name[i]
            }
            if (line != "") print "    " $2 ":" line
            n = 0
        }' "$workdir/$name.log")
    echo "$name: $(sed -n 1p "$patchfile")"
    if [ -z "$kills" ]; then
        echo "    SURVIVED: no test in $pkgs fails"
        survived=$((survived + 1))
    else
        echo "$kills"
    fi
    rm -rf "$tree"
done
if [ "$survived" -ne 0 ]; then
    echo "mutants: $survived mutant(s) survived"
    exit 1
fi
