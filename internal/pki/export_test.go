package pki

import (
	"slices"

	"vcloud/internal/cryptoprim"
)

// Accessors only the tests read. The execution census keeps the
// program to what a run executes; these stay here for the tests.

// NumEnrolled returns the number of registered vehicles.
func (t *TA) NumEnrolled() int { return len(t.draws) }

// LongTerm returns the vehicle's real-identity certificate and key pair,
// issuing them on the first read.
func (e *Enrollment) LongTerm() *cryptoprim.PseudonymEntry { return e.longTerm.Current() }

// IsRevoked reports whether the vehicle has been revoked.
func (t *TA) IsRevoked(id VehicleIdentity) bool {
	_, ok := t.revokedVehicle[id]
	return ok
}

// TracePseudonym reveals the owner of a pseudonym certificate — the
// conditional-privacy escape hatch available only to the authority
// (§V.A "the authority should be able to reveal vehicles' real
// identities"). It derives every enrolled vehicle's pseudonym serials
// from the escrowed draws.
func (t *TA) TracePseudonym(serial cryptoprim.Serial) (VehicleIdentity, bool) {
	for id, draws := range t.draws {
		if slices.Contains(t.ca.Serials(draws[1:], certLifetime), serial) {
			return id, true
		}
	}
	return "", false
}

// TraceGroupSig opens a group signature to the member's real identity.
func (t *TA) TraceGroupSig(sig cryptoprim.GroupSig) (VehicleIdentity, bool) {
	id := t.group.Open(sig)
	if id == "" {
		return "", false
	}
	return VehicleIdentity(id), true
}

// TraceChainID identifies which enrolled vehicle produced a one-time
// chain identity by checking escrowed seeds (index bounded by maxIndex).
func (t *TA) TraceChainID(id [32]byte, maxIndex uint64) (VehicleIdentity, bool) {
	for veh, seed := range t.chainSeeds {
		for k := uint64(0); k <= maxIndex; k++ {
			if cryptoprim.ChainIDAt(seed, k) == id {
				return veh, true
			}
		}
	}
	return "", false
}
