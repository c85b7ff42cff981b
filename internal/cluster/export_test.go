package cluster

import (
	"vcloud/internal/vnet"
)

// Accessors only the tests read. The execution census keeps the
// program to what a run executes; these stay here for the tests.

// Node returns the underlying vnet node.
func (r *Runner) Node() *vnet.Node { return r.node }

// RoleChanges returns the total number of state transitions.
func (t *Tracker) RoleChanges() uint64 { return t.roleChanges }

// BecameHead returns how many head promotions occurred.
func (t *Tracker) BecameHead() uint64 { return t.becameHead }
