package faults

import (
	"vcloud/internal/radio"
)

// Accessors only the tests read. The execution census keeps the
// program to what a run executes; these stay here for the tests.

// Crashed reports whether a node is currently radio-silenced: a crashed
// node is cut even from itself, which no partition or isolation does.
func (in *Injector) Crashed(addr radio.NodeID) bool { return in.Cut(addr, addr) }
