package routing

// Accessors only the tests read. The execution census keeps the
// program to what a run executes; these stay here for the tests.

// BufferLen reports how many packets are waiting for a forwarding
// opportunity (exposed for tests and experiments).
func (g *Greedy) BufferLen() int { return len(g.buffer) }

// BufferLen reports the number of stored copies.
func (e *Epidemic) BufferLen() int { return len(e.buffer) }

// ContactsLen reports how many neighbours the contact scan remembers.
func (e *Epidemic) ContactsLen() int { return len(e.contacts) }
