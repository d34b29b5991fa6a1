#!/usr/bin/env bash
# Usage: guarded-test.sh PKG PATTERN [go test flags...]
#
# Runs `go test PKG -run PATTERN -v` with the given flags and fails
# unless every alternative of PATTERN passed. `go test -run` exits 0
# when its pattern matches nothing, so without this check a renamed or
# moved test would silently empty a guard step. An alternative that
# ends in `$` names one test exactly; any other is a prefix that at
# least one passing test must start with.
set -euo pipefail
pkg=$1
pattern=$2
shift 2
out=$(mktemp)
trap 'rm -f "$out"' EXIT
go test "$pkg" -run "$pattern" -v "$@" | tee "$out"
missing=0
IFS='|' read -r -a alts <<<"$pattern"
for alt in "${alts[@]}"; do
	alt=${alt#^}
	if [[ $alt == *'$' ]]; then
		re="^--- PASS: ${alt%\$} "
	else
		re="^--- PASS: ${alt}"
	fi
	if ! grep -Eq "$re" "$out"; then
		echo "guarded-test: no test matching '$alt' passed in $pkg" >&2
		missing=1
	fi
done
exit "$missing"
