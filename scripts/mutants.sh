#!/bin/sh
# Mutation check: are the oracles sharp enough to catch the bugs they were
# written against? Each entry of the list at the bottom names a file, one
# line of Go source in it, the line that replaces it (the mutant) and the
# test that must then fail. Every entry runs on its own temporary copy of
# the tree.
#
#   sh scripts/mutants.sh
#
# Run it from the repository root. It first runs every listed test on the
# unmutated copy, and stops if one fails there: a test that fails anyway
# kills every mutant and proves nothing. Then it applies each mutant in
# turn and prints "killed" (with the killing test's first complaint) or
# "SURVIVED" for it. It exits 1 when a mutant survives or does not
# compile, or when an entry's source line does not occur exactly once in
# its file (the code moved: mend the entry). The twelve entries take
# about forty seconds on two cores from a cold build cache.
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
tree=$tmp/tree
mkdir "$tree"
git ls-files -z --cached --others --exclude-standard | xargs -0 tar -cf - | tar -xf - -C "$tree"

failed=0
# gotest runs the tests of one package in the copy that match a pattern,
# quietly.
gotest() {
	(cd "$tree" && go test -count=1 -run "$2" "$1" > "$tmp/log" 2>&1)
}

# mutant FILE FROM TO PKG TEST [clean]: with "clean", run TEST on the
# unmutated copy and stop if it fails; otherwise turn FROM, which must be
# on exactly one line of FILE, into TO, run TEST and restore FILE.
mutant() {
	file=$1 pkg=$4 test=$5
	if [ "${6:-}" = clean ]; then
		gotest "$pkg" "$test" || {
			cat "$tmp/log" >&2
			echo "mutants: $test fails on the unmutated tree" >&2
			exit 1
		}
		return
	fi
	n=$(FROM=$2 awk 'index($0, ENVIRON["FROM"]) { n++ } END { print n + 0 }' "$tree/$file")
	if [ "$n" != 1 ]; then
		echo "STALE     $file: the mutated source occurs $n times, want 1: $2"
		failed=1
		return
	fi
	cp "$tree/$file" "$tmp/orig"
	FROM=$2 TO=$3 awk '{
		if (i = index($0, ENVIRON["FROM"]))
			$0 = substr($0, 1, i - 1) ENVIRON["TO"] substr($0, i + length(ENVIRON["FROM"]))
		print
	}' "$tmp/orig" > "$tree/$file"
	if ! gotest "$pkg" '^$'; then
		# A mutant that does not compile kills nothing.
		echo "UNBUILT   $file: $2 -> $3"
		failed=1
	elif gotest "$pkg" "$test"; then
		echo "SURVIVED  $file: $2 -> $3 ($test)"
		failed=1
	else
		echo "killed    $file: $2 -> $3 ($test)"
		grep -m1 '_test.go:[0-9]*:' "$tmp/log" || true
	fi
	cp "$tmp/orig" "$tree/$file"
}

# list runs every entry with the mode given ("clean" or nothing).
list() {
	# The neighbour table's finger trusted without comparing its key:
	# every reception overwrites the row after the last one written.
	mutant internal/vnet/vnet.go \
		'if k := keys[f]; k == addr {' \
		'if k := keys[f]; true {' \
		./internal/vnet/ '^FuzzNeighborFind$' "$@"
	# A beacon row stamped with the instant its reception is decided
	# rather than the instant it arrives.
	mutant internal/vnet/vnet.go \
		'n.hear(b, at)' \
		'n.hear(b, n.kernel.Now())' \
		./internal/vnet/ '^TestBeaconHeardWhenDecided$' "$@"
	# A linearizable store that no longer refuses a superseded epoch.
	mutant internal/store/keyspace.go \
		'if epoch < o.epoch {' \
		'if false {' \
		./internal/store/ '^TestLinearizableEpochFencing$' "$@"
	# fanout.Each that keeps starting units after one has failed.
	mutant internal/fanout/fanout.go \
		'next.Store(int64(n))' \
		'_ = n' \
		./internal/fanout/ '^TestEachStopsAfterAnError$' "$@"
	# A stage dispatch that carries zeroes instead of its predecessors'
	# decided values.
	mutant internal/vcloud/dagsched.go \
		'binding.Inputs = append(binding.Inputs, j.stages[d].value)' \
		'binding.Inputs = append(binding.Inputs, 0)' \
		./internal/vcloud/ '^TestStageLieCostsOneWrongVote$' "$@"
	# The old standby tick: a candidate proposed between checkpoints
	# becomes the standby before the period check, so an advertisement
	# deposes the holder of the last checkpoint before its successor
	# holds one.
	mutant internal/vcloud/leadership.go \
		'if now-l.lastCkpt < checkpointPeriod {' \
		'l.standby = candidate; if now-l.lastCkpt < checkpointPeriod {' \
		./internal/vcloud/ '^TestStandbyMovesWithItsCheckpoint$' "$@"
	# A ticker that queues its next tick, taking its seq, before its
	# callback runs rather than after it.
	mutant internal/sim/sim.go \
		't.fn()' \
		'l.enqueue(t); t.fn(); return' \
		./internal/sim/ '^TestRunQueueMatchesHeapModel$' "$@"
	# A stopped lane head left in place: the lane's slot keeps the
	# tombstone's key and the lane fires it.
	mutant internal/sim/sim.go \
		'if l.buf[l.head].t == t {' \
		'if false && l.buf[l.head].t == t {' \
		./internal/sim/ '^TestRunQueueMatchesHeapModel$' "$@"
	# A ledger that never dedupes: a merge applies an outcome the
	# controller already applied.
	mutant internal/vcloud/leadership.go \
		'if _, dup := l.applied[id]; dup {' \
		'if _, dup := l.applied[id]; false && dup {' \
		./internal/vcloud/ '^TestLeadership$' "$@"
	# A medium that judges a frame by the airtime of every cell on the
	# map rather than the 3×3 block around its sender's: the old
	# map-wide contention.
	mutant internal/radio/radio.go \
		'x0, x1, y0, y1 := max(cx-1, 0), min(cx+1, cols-1), max(cy-1, 0), min(cy+1, rows-1)' \
		'x0, x1, y0, y1 := 0, cols-1, 0, rows-1' \
		./internal/radio/ '^TestStormLeavesDistantClusterAlone$' "$@"
	# A shard channel that judges every beacon as if the air were idle.
	mutant internal/radio/shard.go \
		'pCollide: c.params.CollisionProb(busy),' \
		'pCollide: c.params.CollisionProb(0),' \
		./internal/radio/ '^TestShardChannelLoadLoss$' "$@"
	# movePhase pushing ghosts only to shards within half the halo.
	mutant internal/shardworld/world.go \
		's.near = w.smap.ShardsNear(s.near[:0], v.Pos, w.halo)' \
		's.near = w.smap.ShardsNear(s.near[:0], v.Pos, w.halo/2)' \
		./internal/shardworld/ '^TestShardedMatchesSerial$' "$@"
}

list clean
list
exit $failed
