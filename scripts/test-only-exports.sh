#!/usr/bin/env bash
# Lists the exported functions and methods of the internal packages that
# no non-test file outside their own package names: exports that only
# tests (or the package itself) use, which should be unexported or moved
# into a _test.go file. Prints "file:line: Name" for each, nothing when
# there is none; `make exports` fails on any output.
#
#   scripts/test-only-exports.sh
#
# A name counts as used when some non-test .go file in another directory
# selects it (".Name", comments too), bench/ included: the benchmark is
# a real caller.
# The match is by name, not by type, so an export whose name another
# package selects on some other type is missed, never wrongly reported.
# Interface methods the standard library calls without naming them are
# skipped. The root package is the library's public API and is not
# surveyed; types are not surveyed either.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
skip='String|Error|Unwrap|ServeHTTP|MarshalJSON|UnmarshalJSON|Write|WriteHeader|Flush'
{
	find internal -name '*.go' ! -name '*_test.go' -print0 | xargs -0 awk '
		/^func / {
			s = $0; sub(/^func (\([^)]*\) )?/, "", s)
			if (match(s, /^[A-Z][A-Za-z0-9_]*[[(]/)) {
				d = FILENAME; sub(/\/[^\/]*$/, "", d)
				print "D", d, substr(s, 1, RLENGTH - 1), FILENAME ":" FNR
			}
		}'
	find . -name '*.go' ! -name '*_test.go' ! -path './.*' -print0 | xargs -0 grep -HoE '\.[A-Z][A-Za-z0-9_]*' | awk -F: '{
		d = $1; sub(/^\.\//, "", d); if (!sub(/\/[^\/]*$/, "", d)) d = "."
		print "R", d, substr($2, 2)
	}'
} | awk -v skip="^($skip)\$" '
	$1 == "D" && $3 !~ skip { decl[$4] = $2 " " $3 }
	$1 == "R" && !(($2, $3) in seen) { seen[$2, $3] = 1; dirs[$3] = dirs[$3] " " $2 }
	END {
		for (at in decl) {
			split(decl[at], p, " ")
			n = split(dirs[p[2]], ds, " ")
			out = 1
			for (i = 1; i <= n; i++) if (ds[i] != p[1]) out = 0
			if (out) print at ": " p[2]
		}
	}' | sort
