package vcloud_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vcloud/internal/sim"
	"vcloud/internal/vcloud"
	"vcloud/internal/vnet"
)

// TestLedgerConservationProperty: credits are conserved — after any
// sequence of transfers the balances sum to zero, the chain verifies,
// and the volume equals the sum of amounts.
func TestLedgerConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(raw []uint16) bool {
		l := vcloud.NewLedger()
		var volume int64
		accounts := map[vnet.Addr]bool{}
		for i, r := range raw {
			from := vnet.Addr(r % 7)
			to := vnet.Addr((r / 7) % 7)
			amount := int64(r%100) + 1
			if from == to {
				continue
			}
			if err := l.Transfer(sim.Time(i), vcloud.TaskID(i), from, to, amount); err != nil {
				return false
			}
			volume += amount
			accounts[from] = true
			accounts[to] = true
		}
		var sum int64
		for a := range accounts {
			sum += l.Balance(a)
		}
		return sum == 0 && l.Verify() == -1 && l.TotalVolume() == volume
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}
