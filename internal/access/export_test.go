package access

// Accessors only the tests read. The execution census keeps the
// program to what a run executes; these stay here for the tests.

// Epoch returns the current epoch of an attribute.
func (a *Authority) Epoch(attr AttributeID) uint64 { return a.epochs[attr] }

// Has reports whether the keyring holds attr.
func (k *Keyring) Has(attr AttributeID) bool {
	_, ok := k.keys[attr]
	return ok
}

// VerifyIntegrity checks the owner signature over resource, policy and
// ciphertext. Relying parties call this before trusting the policy.
func (p *Package) VerifyIntegrity() error { return p.verify(nil) }
