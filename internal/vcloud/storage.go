// Storage integration: the controller as the data-service coordinator
// (ISSUE 6). The vehicular data-storage service of internal/store needs
// a window onto the churning cluster — who the members are, who is
// reachable, how long each is predicted to stay, and the fencing epoch
// — and a driver for churn-triggered repair. Callers build the view over
// their own membership source (store.FuncView); the repair driver lives
// here: AttachStorage registers a
// backend for churn-driven repair, where member expiry (silent past
// memberTTL) triggers a repair pass and a partition-heal merge (the PR 3
// anti-entropy path) repairs under the merged epoch — the moment two
// clusters reunite is exactly when placements are most skewed.
//
// Every controller a deployment starts drives DeployConfig.Storage,
// failover successors included, so the service keeps repairing across
// failovers.
package vcloud

import (
	"vcloud/internal/store"
)

// storageBackend is the attached data-service contract (an alias keeps
// controller.go free of the store import).
type storageBackend = store.Backend

// AttachStorage registers the storage backend this controller drives:
// membership churn (expiry) and partition-heal merges trigger repair
// passes fenced at the controller's epoch. Pass nil to detach.
func (c *Controller) AttachStorage(b store.Backend) { c.storage = b }

// repairStorage runs one fenced repair pass on the attached backend.
func (c *Controller) repairStorage() {
	if c.storage == nil {
		return
	}
	c.storage.Repair(store.RepairReq{Epoch: c.lead.epoch.Counter})
}
