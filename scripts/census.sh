#!/bin/sh
# Execution census: which exported functions does nothing but a unit test
# run? Builds every main with coverage over the whole module, runs the
# run set below, merges the profiles and lists each exported function
# that reads 0.0 % as "pkg.Recv.Func" (pkg is the import path without the
# module prefix; the root package is "vcloud").
#
#   scripts/census.sh          # print the never-executed list
#   scripts/census.sh -check   # also diff it against census.txt, the
#                              # run set's stdout against runset_output.txt
#                              # and the full-size experiment tables against
#                              # experiments_output.txt; exit 1 on a missing,
#                              # stale or unreasoned line, on any byte of
#                              # drift (naming the "### <command>" or "== En"
#                              # blocks that moved) or on a DIVERGED row
#
# Run it from the repository root. CENSUS_DIR keeps the binaries, the
# merged profile, experiments.txt (the vcloudbench stdout) and runset.txt,
# the stdout of every soak, scenario and example run under a
# "### <command>" header (the benchmark prints host time, so its stdout is
# not kept). Copying runset.txt over runset_output.txt, or experiments.txt
# over experiments_output.txt, is a deliberate re-baseline. The run set
# takes about two minutes on two cores.
set -eu

check=0
[ "${1:-}" = "-check" ] && check=1

dir=${CENSUS_DIR:-$(mktemp -d)}
bin=$dir/bin
cov=$dir/cov
rm -rf "$cov"
mkdir -p "$bin" "$cov"

examples="contentshare emergency parkinglot quickstart secureauth"
for m in cmd/vcloudbench cmd/vcloudsim benchmark; do
	go build -cover -coverpkg=./... -o "$bin/$(basename $m)" ./$m
done
for e in $examples; do
	go build -cover -coverpkg=./... -o "$bin/$e" ./examples/$e
done

export GOCOVERDIR=$cov
runset=$dir/runset.txt
: > "$runset"
run() { "$@" > /dev/null || { echo "census: run failed: $*" >&2; exit 1; }; }
# keep runs one binary of $bin and appends its stdout to the run set.
keep() {
	name=$1
	shift
	echo "### $name $*" >> "$runset"
	"$bin/$name" "$@" >> "$runset" || { echo "census: run failed: $name $*" >&2; exit 1; }
}

experiments=$dir/experiments.txt
"$bin/vcloudbench" > "$experiments" || { echo "census: run failed: vcloudbench" >&2; exit 1; }
for e in $examples; do
	keep "$e"
done
for mode in "" "-splitbrain" "-store replicated" "-store ec" "-dag" "-saturate"; do
	# shellcheck disable=SC2086 # $mode is zero, one or two words
	keep vcloudsim -soak $mode -seed 7 -vehicles 14 -duration 300
done
# The one soak that merges fenced controllers carrying DAG jobs and
# storage: it pins what an abdication ships to the survivor.
keep vcloudsim -soak -splitbrain -dag -store replicated -seed 11 -vehicles 18 -duration 300
plan='20s crash 3; 25s recover 3; 30s rsu-down 0; 40s rsu-up 0; 45s partition 1500,0 400 20s; 50s isolate 4 10s; 60s loss 0.3 10s; 70s kill-controller 0; 80s kill-member 5'
for scen in highway city parkinglot; do
	for arch in stationary infrastructure dynamic; do
		keep vcloudsim -scenario $scen -arch $arch -trace 20
		keep vcloudsim -scenario $scen -arch $arch -secure -replicas 3 -retries 2 -faults "$plan"
	done
done
run "$bin/benchmark" -seconds 1
run "$bin/benchmark" -seconds 1 -trace 1

go tool covdata textfmt -i="$cov" -o "$dir/cover.txt"
go tool cover -func="$dir/cover.txt" > "$dir/func.txt"

# "vcloud/internal/geo/geo.go:88:	Nearest	0.0%" -> "internal/geo.GridIndex.Nearest"
awk '$NF == "0.0%" && $2 ~ /^[A-Z]/ { split($1, a, ":"); print a[1], a[2], $2 }' "$dir/func.txt" |
	while read -r file line fn; do
		src=${file#vcloud/}
		pkg=$(dirname "$file")
		pkg=${pkg#vcloud/}
		[ "$pkg" = vcloud ] || [ -n "$pkg" ] || pkg=vcloud
		recv=$(sed -n "${line}p" "$src" | sed -n 's/^func (\([^)]*\)).*/\1/p' | awk '{print $NF}' | tr -d '*' | sed 's/\[.*//')
		if [ -n "$recv" ]; then
			echo "$pkg.$recv.$fn"
		else
			echo "$pkg.$fn"
		fi
	done | sort -u > "$dir/zero.txt"

if [ $check -eq 0 ]; then
	cat "$dir/zero.txt"
	exit 0
fi

fail=0
# Every table is a pure function of the seed, so any byte of drift is a
# behaviour change; E17 prints DIVERGED when a shard count's model output
# differs from serial.
if ! sh scripts/expdiff.sh "$experiments" experiments_output.txt > "$dir/experiments.diff"; then
	echo "experiments_output.txt: the tables drifted (see $dir/experiments.diff):" >&2
	head -40 "$dir/experiments.diff" >&2
	fail=1
fi
if grep -q DIVERGED "$experiments"; then
	echo "census: E17 printed DIVERGED: a sharded run differs from serial" >&2
	fail=1
fi
if ! diff runset_output.txt "$runset" > "$dir/runset.diff"; then
	echo "runset_output.txt: the run set's stdout drifted (see $dir/runset.diff):" >&2
	head -40 "$dir/runset.diff" >&2
	# Name every run whose stdout moved: prefix each line with the
	# "### <command>" header of its block, diff, keep each header once.
	tag() { awk '/^### / { id = $0 } { print id "\t" $0 }' "$1"; }
	tag runset_output.txt > "$dir/want.tagged"
	tag "$runset" > "$dir/got.tagged"
	echo "moved blocks:" >&2
	diff "$dir/want.tagged" "$dir/got.tagged" |
		awk -F '\t' '/^[<>] / && !seen[substr($1, 3)]++ { print "  " substr($1, 3) }' >&2
	fail=1
fi
reasons='fmt.Stringer or interface method|Stop of a type whose start runs|named by the frozen benchmark|CLI/profiling plumbing|read by tests in another package'
grep -v '^#' census.txt | grep -v '^$' > "$dir/census.lines" || true
if grep -vE "^[^ ]+ +# ($reasons)\$" "$dir/census.lines" > "$dir/bad.txt"; then
	echo "census.txt: lines without a reason from the closed set:" >&2
	cat "$dir/bad.txt" >&2
	fail=1
fi
awk '{print $1}' "$dir/census.lines" | sort -u > "$dir/listed.txt"
if comm -23 "$dir/zero.txt" "$dir/listed.txt" | grep . > "$dir/missing.txt"; then
	echo "census: never executed and not in census.txt (delete it, or list it with a reason):" >&2
	cat "$dir/missing.txt" >&2
	fail=1
fi
if comm -13 "$dir/zero.txt" "$dir/listed.txt" | grep . > "$dir/stale.txt"; then
	echo "census.txt: listed but now executed or gone (remove the line):" >&2
	cat "$dir/stale.txt" >&2
	fail=1
fi
exit $fail
