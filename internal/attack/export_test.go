package attack

// Accessors only the tests read. The execution census keeps the
// program to what a run executes; these stay here for the tests.

// TotalCaptured returns the total overheard frame count.
func (e *Eavesdropper) TotalCaptured() uint64 {
	var total uint64
	for _, v := range e.Captured {
		total += v
	}
	return total
}
