#!/bin/sh
# Compare a vcloudbench output with the committed tables.
#
#   sh scripts/expdiff.sh out.txt experiments_output.txt
#
# Silent, exit 0, when the two files are byte-identical. Otherwise prints
# the diff, then one line naming the "== En" blocks that differ (for
# example "differing blocks: E1 E4"), and exits 1, so a deliberate
# re-baseline shows its scope at a glance.
set -eu
got=$1
want=$2
if diff "$got" "$want"; then
	exit 0
fi
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# Prefix every line with the ID of the block it sits in; lines above the
# first block header belong to "preamble".
tag() {
	awk 'BEGIN { id = "preamble" } /^== E[0-9]+:/ { id = substr($2, 1, length($2) - 1) } { print id " " $0 }' "$1"
}
tag "$got" > "$tmp/got"
tag "$want" > "$tmp/want"
diff "$tmp/got" "$tmp/want" |
	awk '/^[<>] / && !seen[$2]++ { ids = ids " " $2 } END { print "differing blocks:" ids }' >&2
exit 1
