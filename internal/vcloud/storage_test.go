package vcloud_test

import (
	"slices"
	"testing"
	"time"

	"vcloud/internal/faults"
	"vcloud/internal/scenario"
	"vcloud/internal/store"
	"vcloud/internal/vcloud"
	"vcloud/internal/vnet"
)

// storeHarness bundles the deployed cloud and its attached backend.
type storeHarness struct {
	s      *scenario.Scenario
	d      *vcloud.Deployment
	ctl    *vcloud.Controller
	b      *store.Replicated
	sstats *store.Stats
	inj    *faults.Injector
}

// attachStore deploys a stationary cloud and attaches a strict-quorum
// replicated backend driven by the controller's view.
func attachStore(t *testing.T, vehicles int) storeHarness {
	t.Helper()
	s := parkingScenario(t, vehicles)
	stats := &vcloud.Stats{}
	d, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{}, stats)
	if err != nil {
		t.Fatal(err)
	}
	ctl := d.Controllers[0]
	sstats := &store.Stats{}
	b, err := store.NewReplicated(store.Config{N: 3, W: 2, R: 2}, ctl.StorageView(), sstats)
	if err != nil {
		t.Fatal(err)
	}
	ctl.AttachStorage(b)
	inj, err := faults.NewInjector(s)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inj.Close)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if ctl.NumMembers() < 8 {
		t.Fatalf("members = %d, want most of %d", ctl.NumMembers(), vehicles)
	}
	return storeHarness{s: s, d: d, ctl: ctl, b: b, sstats: sstats, inj: inj}
}

// TestStorageChurnRepair: a member that goes silent past MemberTTL is
// expired by the controller's tick, which must immediately run a repair
// pass so its copies are re-replicated onto surviving members.
func TestStorageChurnRepair(t *testing.T) {
	h := attachStore(t, 12)
	keys := []store.Key{"logs/a", "logs/b", "maps/tile-7", "maps/tile-8", "video/clip"}
	for _, k := range keys {
		ack := store.PutSized(h.b, "writer", k, 64<<10)
		if !ack.Acked {
			t.Fatalf("write %q not acked", k)
		}
		if len(h.b.Holders(k)) != 3 {
			t.Fatalf("holders(%q) = %d, want 3", k, len(h.b.Holders(k)))
		}
	}
	victim := h.b.Holders(keys[0])[0]
	h.inj.CrashNode(victim)
	// TTL is 3 s by default; run well past it so the tick expires the
	// member and the expiry-driven repair pass lands.
	if err := h.s.RunFor(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(h.ctl.Members(), victim) {
		t.Fatal("crashed member not expired from membership")
	}
	for _, k := range keys {
		hs := h.b.Holders(k)
		if slices.Contains(hs, victim) {
			t.Errorf("holders(%q) still lists crashed member %d", k, victim)
		}
		if len(hs) != 3 {
			t.Errorf("holders(%q) = %d after repair, want 3", k, len(hs))
		}
		if _, ok := store.Get(h.b, "reader", k); !ok {
			t.Errorf("read %q failed after churn repair", k)
		}
	}
	if h.sstats.ReReplicas.Value() == 0 {
		t.Error("expiry did not trigger re-replication")
	}
}

// TestStorageViewTracksController pins the view adapter: members mirror
// the membership table, all live members are online, and dwell is finite
// for vehicles when an estimator is wired (stationary deploys wire one).
func TestStorageViewTracksController(t *testing.T) {
	h := attachStore(t, 10)
	v := h.ctl.StorageView()
	got := v.Members()
	want := h.ctl.Members()
	if !slices.Equal(got, want) {
		t.Fatalf("view members %v != controller members %v", got, want)
	}
	for _, a := range want {
		if !v.Online(a) {
			t.Errorf("member %d not online in view", a)
		}
		if v.Dwell(a) <= 0 {
			t.Errorf("dwell(%d) = %v, want positive", a, v.Dwell(a))
		}
	}
	if v.Online(vnet.Addr(9999)) {
		t.Error("unknown address reported online")
	}
	if v.Epoch() != 0 {
		t.Errorf("unfenced deployment epoch = %d, want 0", v.Epoch())
	}
}
