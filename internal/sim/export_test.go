package sim

// Accessors only the tests read. The execution census keeps the
// program to what a run executes; these stay here for the tests.

// Seed returns the seed the kernel was created with.
func (k *Kernel) Seed() int64 { return k.seed }

// NumShards returns the shard count.
func (sk *ShardedKernel) NumShards() int { return len(sk.shards) }

// Lookahead returns the conservative window length.
func (sk *ShardedKernel) Lookahead() Time { return sk.lookahead }

// Now returns the coordinator's virtual time: the start of the next
// unprocessed window (every shard has dispatched all events before it).
func (sk *ShardedKernel) Now() Time { return sk.now }

// Pending returns the total number of scheduled events across shards,
// excluding cross events parked in outboxes.
func (sk *ShardedKernel) Pending() int {
	n := 0
	for _, k := range sk.shards {
		n += k.Pending()
	}
	return n
}
