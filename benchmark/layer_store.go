package main

import (
	"vcloud"
	"vcloud/internal/store"
)

// Adapter for store. The facade re-exports the backend constructors and
// config; the view adapter, the consistency and placement constants, the
// key types and the everyday client calls are not re-exported.

type (
	storeKey     = store.Key
	storeClient  = store.ClientID
	storeVersion = store.Version
	storeAck     = store.WriteAck
	storeRead    = store.ReadResult
)

// storeConfig is the config both backends share: session consistency,
// dwell placement, and crashed holders keep their disks (only a
// departure loses them). rtt models member fetch time.
func storeConfig(rtt func(a addr, size int) float64) vcloud.StorageConfig {
	return vcloud.StorageConfig{
		Consistency:   store.Session,
		Placement:     store.PlaceDwell,
		RetainOffline: true,
		RTT:           rtt,
	}
}

// storeView builds the membership view a backend places against.
func storeView(members func() []addr, online func(addr) bool) vcloud.StorageView {
	return store.FuncView{MembersFn: members, OnlineFn: online}
}

func storePut(b vcloud.StorageBackend, c storeClient, k storeKey, data []byte) storeAck {
	return store.Put(b, c, k, data)
}

func storeGet(b vcloud.StorageBackend, c storeClient, k storeKey) (storeRead, bool) {
	return store.Get(b, c, k)
}

func storeFix(b vcloud.StorageBackend) int { return store.Fix(b) }
