// Storage soak: the data-service workload and its three invariants
// (ISSUE 6). When SoakConfig.Storage selects a backend, a KV workload
// of session clients flows alongside the task workload, the storm
// gains a permanent-departure branch (a vehicle drives away and its
// disk leaves with it), and every invariant sweep audits:
//
//   - durability: an acknowledged write is never lost while at least a
//     reconstruction threshold of its placed holders survives — one
//     holder for whole-copy replication, K distinct members for a
//     (K, M) erasure code (fragment index sets per member are disjoint
//     within a write, so K surviving members always carry K distinct
//     indices). Losses below the threshold are counted, not flagged:
//     that is the regime the service is allowed to lose data in.
//
//   - session monotonicity: a session client never reads backwards.
//     The harness keeps its own external watermark per (client, key) —
//     raised by the client's acked writes and served reads — and flags
//     any served read below it, independent of the backend's internal
//     session tracking.
//
//   - byte fidelity: a served read returns exactly the bytes written by
//     the version it names. Every write carries a 1 KB payload that is
//     a pure function of its sequence number (the modelled size stays
//     64 KB, so no byte count moves), and the harness remembers which
//     write produced each (key, version) — acked or not, since a read
//     may serve either. This is what drives real bytes through the
//     erasure coder, its aliasing of the written object and its release
//     of stale fragments under the storm.
//
// The backend's view is the world's departure drill over the fault
// injector's ground truth (reachable means not cut from the coordinator
// RSU), not the controller's membership table, so the invariants judge
// the storage service against what actually happened on the radio — and
// the same backend is wired
// into the deployment (DeployConfig.Storage), so controller expiry,
// leave, and partition-heal merges drive extra fenced repair passes on
// top of the harness's periodic one.
package chaos

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"vcloud/internal/sim"
	"vcloud/internal/store"
	"vcloud/internal/vnet"
	"vcloud/internal/world"
)

// storageClients is the session-client pool of the KV workload.
var storageClients = []store.ClientID{"veh-a", "veh-b", "veh-c"}

// ackedWrite is the harness's record of the latest acknowledged write
// of one key: the version and the members the backend placed it on.
type ackedWrite struct {
	version store.Version
	placed  []vnet.Addr
}

// storageState is the soak's storage-workload bookkeeping.
type storageState struct {
	backend store.Backend
	// threshold is the surviving-placed-member count that guarantees
	// durability: 1 for whole copies, K for a (K, M) erasure code.
	threshold int
	// deps is the permanent-departure churn the backend's view follows.
	deps  *world.Departures
	acked map[store.Key]ackedWrite
	// lostAt dedupes loss counting: the highest acked version of each
	// key already counted as lost.
	lostAt map[store.Key]store.Version
	// marks is the external session watermark per (client, key).
	marks map[store.ClientID]map[store.Key]store.Version
	// wrote maps every version the backend allocated to the sequence
	// number of the write that produced it (soakPayload regenerates its
	// bytes).
	wrote             map[versionKey]int
	writeSeq, readSeq int
}

// versionKey names one version of one key.
type versionKey struct {
	key     store.Key
	version store.Version
}

// soakPayloadBytes is the real payload each soak write carries under
// its 64 KB modelled size: a multiple of K = 4, so intact erasure-coded
// reads take the aliased path and degraded ones the rebuild.
const soakPayloadBytes = 1 << 10

// soakPayload returns the payload of write number seq: a pure function
// of seq (and so of its client and key, which are seq modulo the pool
// sizes), fresh storage on every call.
func soakPayload(seq int) []byte {
	data := make([]byte, soakPayloadBytes)
	x := uint64(seq)
	for i := 0; i < len(data); i += 8 {
		x = sim.Mix64(x + 1)
		binary.LittleEndian.PutUint64(data[i:], x)
	}
	return data
}

// setupStorage builds the backend over the departure drill's view from
// the gate RSU and arms the workload state. Called before Deploy so the
// deployment can wire the backend into its controllers.
func (sk *soak) setupStorage() error {
	scfg := store.Config{
		Consistency:   store.Session,
		Placement:     store.PlaceDwell,
		RetainOffline: true, // crashed holders keep their disks; only departures lose them
	}
	st := &storageState{
		deps:   sk.w.Departures(sk.s.RSUs[0].Addr()),
		acked:  make(map[store.Key]ackedWrite),
		lostAt: make(map[store.Key]store.Version),
		marks:  make(map[store.ClientID]map[store.Key]store.Version),
		wrote:  make(map[versionKey]int),
	}
	view := st.deps.View()
	var err error
	switch sk.cfg.Storage {
	case "replicated":
		st.threshold = 1
		scfg.N, scfg.W, scfg.R = 3, 2, 2
		st.backend, err = store.NewReplicated(scfg, view, &store.Stats{})
	case "ec":
		scfg.K, scfg.M = 4, 2
		st.threshold = scfg.K
		st.backend, err = store.NewErasureCoded(scfg, view, &store.Stats{})
	}
	if err != nil {
		return err
	}
	sk.st = st
	return nil
}

// storageKey maps a sequence number onto the rotating key space.
func (sk *soak) storageKey(seq int) store.Key {
	return store.Key(fmt.Sprintf("obj-%02d", seq%storageKeys))
}

// mark returns the external watermark for (client, key).
func (st *storageState) mark(c store.ClientID, k store.Key) store.Version {
	return st.marks[c][k]
}

// advance raises the external watermark for (client, key).
func (st *storageState) advance(c store.ClientID, k store.Key, v store.Version) {
	m := st.marks[c]
	if m == nil {
		m = make(map[store.Key]store.Version)
		st.marks[c] = m
	}
	if v > m[k] {
		m[k] = v
	}
}

// storageTick is one workload beat: one write and one read, rotating
// keys and session clients out of phase so clients read keys that
// other clients wrote.
func (sk *soak) storageTick() {
	st := sk.st
	wc := storageClients[st.writeSeq%len(storageClients)]
	wk := sk.storageKey(st.writeSeq)
	ack := st.backend.Write(store.WriteReq{
		Client: wc, Key: wk, Data: soakPayload(st.writeSeq), Size: 64 << 10,
		Epoch: st.backend.View().Epoch(),
	})
	sk.report.StorageWrites++
	if ack.Version != 0 {
		st.wrote[versionKey{wk, ack.Version}] = st.writeSeq
	}
	if ack.Acked {
		sk.report.StorageAcked++
		st.acked[wk] = ackedWrite{version: ack.Version, placed: slices.Clone(ack.Placed)}
		st.advance(wc, wk, ack.Version)
	}
	sk.event("put %s v=%d acked=%v placed=%d", wk, ack.Version, ack.Acked, len(ack.Placed))
	st.writeSeq++

	rc := storageClients[(st.readSeq+1)%len(storageClients)]
	rk := sk.storageKey(st.readSeq)
	sk.report.StorageReads++
	if res, ok := store.Get(st.backend, rc, rk); ok {
		sk.report.StorageReadsOK++
		if res.Version < st.mark(rc, rk) {
			sk.violate("storage: session client %s read %s backwards (v%d after observing v%d): a session client never reads backwards",
				rc, rk, res.Version, st.mark(rc, rk))
		}
		st.advance(rc, rk, res.Version)
		if seq, known := st.wrote[versionKey{rk, res.Version}]; !known || !bytes.Equal(res.Data, soakPayload(seq)) {
			sk.violate("storage: read of %s served v%d with %d bytes that are not the bytes that version's write stored: a served read returns exactly what was written",
				rk, res.Version, len(res.Data))
		}
		sk.event("get %s v=%d replies=%d", rk, res.Version, res.Replies)
	} else {
		sk.event("get %s refused", rk)
	}
	st.readSeq++
}

// storageRepair is the harness's periodic repair pass (the controller
// adds its own on expiry, leave and merge).
func (sk *soak) storageRepair() {
	if created := store.Fix(sk.st.backend); created > 0 {
		sk.event("storage repair created %d", created)
	}
}

// depart is one beat of the departure drill, whose crash and recover
// events the injector logs.
func (sk *soak) depart() {
	sk.report.DepartBeats++
	sk.st.deps.Step(sk.rng, sk.st.backend)
}

// checkStorage is the storage half of an invariant sweep: for every
// key's latest acked write, count the placed members that have not
// departed; at or above the threshold the write must still be durable.
func (sk *soak) checkStorage() {
	st := sk.st
	keys := make([]store.Key, 0, len(st.acked))
	for k := range st.acked {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		aw := st.acked[k]
		survivors := 0
		for _, a := range aw.placed {
			if !st.deps.Gone(a) {
				survivors++
			}
		}
		v, ok := st.backend.Durable(k)
		lost := !ok || v < aw.version
		if lost && st.lostAt[k] < aw.version {
			st.lostAt[k] = aw.version
			sk.report.StorageLost++
			sk.event("storage lost %s v=%d survivors=%d/%d", k, aw.version, survivors, len(aw.placed))
		}
		if lost && survivors >= st.threshold {
			sk.violate("storage: acked write %s v%d lost with %d/%d placed members surviving (threshold %d): no acked write may be lost while a quorum of its replicas survives",
				k, aw.version, survivors, len(aw.placed), st.threshold)
		}
	}
}
