package auth

// Accessors only the tests read. The execution census keeps the
// program to what a run executes; these stay here for the tests.

// Scheme returns the protocol in use.
func (a *Authenticator) Scheme() Scheme { return a.scheme }
