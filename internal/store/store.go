// Package store is the vehicular data-storage service: a replicated
// key-value/object layer whose storage nodes are the churning members
// of a vehicular cloud (the §III.A data-availability challenge, after
// Tseng et al.'s "cars as storage nodes" design).
//
// Two backends implement the same Backend interface:
//
//   - Replicated keeps N whole copies per key and acknowledges a write
//     once W copies are placed; reads gather R replies, so W+R > N
//     gives quorum intersection (every read quorum overlaps every
//     acked write quorum in at least one holder of the new version).
//   - ErasureCoded splits each object into K data + M parity fragments
//     with a Reed–Solomon code over GF(2^8); any K distinct fragments
//     reconstruct the object, so the service survives M losses at
//     ~(K+M)/K storage overhead instead of N×.
//
// Three consistency levels are offered per Config.Consistency:
// eventual (any reachable copy serves), session (a client's reads
// never go backwards relative to its own watermark vector), and
// linearizable-per-key (writes and reads are fenced through the
// controller epochs of internal/vcloud/epoch.go: a superseded epoch's
// operations are refused, so per key there is a single serial order).
//
// Placement is dwell-weighted: members predicted to stay longer
// (mobility.DwellTier) attract fragments first, short-dwell vehicles
// get fewer or none. Repair re-replicates under-replicated keys from
// surviving copies; the vehicular-cloud controller drives it on member
// expiry and on partition-heal merges (the PR 3 anti-entropy path).
//
// Everything is deterministic: no wall clock, no global randomness, and
// all map iterations that produce effects run in sorted key order.
package store

import (
	"fmt"
	"math"
	"slices"

	"vcloud/internal/metrics"
	"vcloud/internal/mobility"
	"vcloud/internal/vnet"
)

// Key identifies a stored object.
type Key string

// ClientID identifies a session client (for monotonic-read tracking).
// The empty ID is an anonymous client with no session state.
type ClientID string

// Version orders the writes of one key. Versions are allocated by the
// backend, strictly increasing per key.
type Version uint64

// Consistency selects the guarantee a backend enforces on reads.
type Consistency int

const (
	// Eventual serves any reachable copy; reads may go backwards.
	Eventual Consistency = iota
	// Session adds per-client monotonic reads: the backend tracks a
	// version watermark vector per client and refuses a read that would
	// return an older version than the client has already observed
	// (counted in Stats.SessionStale).
	Session
	// Linearizable adds per-key epoch fencing on top of Session: writes
	// and reads carry the controller epoch and are refused when a
	// higher epoch has touched the key — combined with W+R > N this
	// yields a single serial order per key.
	Linearizable
)

// String implements fmt.Stringer.
func (c Consistency) String() string {
	switch c {
	case Eventual:
		return "eventual"
	case Session:
		return "session"
	case Linearizable:
		return "linearizable"
	default:
		return "unknown"
	}
}

// Placement names how a backend ranks online members for new copies.
// One ranking is left; the type and constant stay only because
// benchmark/layer_store.go spells them.
type Placement int

// PlaceDwell ranks by dwell tier (longest-staying first), then by
// current load (fewest copies first), then by address — the
// Abdisarabshali-style reliability-weighted placement.
const PlaceDwell Placement = 0

// View is the backend's window onto the churning cluster: who the
// members are, who is reachable right now, how long each is predicted
// to stay, and the current controller epoch. The controller supplies
// one (vcloud.Controller.StorageView); tests use FuncView.
type View interface {
	// Members returns the current member addresses in ascending order.
	Members() []vnet.Addr
	// Online reports whether the member is reachable right now.
	Online(a vnet.Addr) bool
	// Dwell returns the predicted residual dwell of the member in
	// seconds (+Inf for parked/stationary members, 0 for unknown).
	Dwell(a vnet.Addr) float64
	// Epoch returns the current controller epoch counter (0 unfenced).
	Epoch() uint64
}

// FuncView adapts plain functions to a View.
type FuncView struct {
	MembersFn func() []vnet.Addr
	OnlineFn  func(vnet.Addr) bool
	DwellFn   func(vnet.Addr) float64
	EpochFn   func() uint64
}

// Members implements View.
func (v FuncView) Members() []vnet.Addr { return v.MembersFn() }

// Online implements View; nil means always online.
func (v FuncView) Online(a vnet.Addr) bool {
	if v.OnlineFn == nil {
		return true
	}
	return v.OnlineFn(a)
}

// Dwell implements View; nil means parked (+Inf).
func (v FuncView) Dwell(a vnet.Addr) float64 {
	if v.DwellFn == nil {
		return math.Inf(1)
	}
	return v.DwellFn(a)
}

// Epoch implements View; nil means unfenced (0).
func (v FuncView) Epoch() uint64 {
	if v.EpochFn == nil {
		return 0
	}
	return v.EpochFn()
}

// WriteReq is a fenced write: store Data (or a modeled Size bytes)
// under Key on behalf of Client, at the writer's controller Epoch.
type WriteReq struct {
	Client ClientID
	Key    Key
	// Data is the object payload; may be nil for modeled-size objects.
	// The store keeps Data without copying it — whole copies and data
	// fragments are the caller's slice — so the caller must not modify
	// it after Write.
	Data []byte
	// Size overrides len(Data) as the modeled byte size when non-zero.
	Size int
	// Epoch is the writer's controller epoch counter (0 = unfenced).
	Epoch uint64
}

// ReadReq is a fenced read of Key on behalf of Client at Epoch.
type ReadReq struct {
	Client ClientID
	Key    Key
	// Epoch is the reader's controller epoch counter (0 = unfenced).
	Epoch uint64
}

// RepairReq asks the backend to re-replicate every under-replicated
// key from surviving copies, fenced at the repairer's Epoch.
type RepairReq struct {
	// Epoch is the repairer's controller epoch counter (0 = unfenced).
	Epoch uint64
}

// WriteAck reports a write's outcome. A write is Acked when the
// backend placed at least a write quorum of copies/fragments; an
// un-acked write may still have left partial copies behind.
type WriteAck struct {
	// Version is the version this write created (0 when refused).
	Version Version
	// Placed lists the member addresses holding a copy or fragment of
	// the new version, ascending.
	Placed []vnet.Addr
	// Acked reports whether the write reached its quorum.
	Acked bool
}

// ReadResult reports a successful read.
type ReadResult struct {
	// Data is the payload (nil for modeled-size objects). It may alias
	// stored bytes — an intact read returns the very slice that was
	// written (WriteReq.Data) — so it must not be modified or appended to.
	Data []byte
	// Version is the version served.
	Version Version
	// Latency is the modeled time-to-first-usable-byte in seconds: the
	// quorum'th-smallest member RTT at the transfer size.
	Latency float64
	// Replies is how many online holders answered.
	Replies int
}

// Backend is the storage service contract both backends satisfy.
type Backend interface {
	// Write stores the object, returning the ack (zero-valued and
	// un-Acked when refused by fencing).
	Write(req WriteReq) WriteAck
	// Read fetches the object; ok is false when no read quorum is
	// reachable, the key is unknown, or fencing/session rules refuse.
	Read(req ReadReq) (res ReadResult, ok bool)
	// Repair re-replicates under-replicated keys from surviving
	// copies, returning how many new copies/fragments were created.
	Repair(req RepairReq) int
	// Forget drops every copy and fragment held by the member — the
	// member departed for good and its storage is gone. It returns how
	// many copies were dropped.
	Forget(a vnet.Addr) int
	// Durable returns the highest version of the key that could still
	// be reconstructed from the surviving (non-forgotten) copies, and
	// whether any version survives at all. Liveness is ignored: a
	// crashed holder still holds.
	Durable(k Key) (Version, bool)
	// View returns the cluster view the backend operates on.
	View() View
	// Stats returns the backend's counters.
	Stats() *Stats
}

// Stats aggregates storage-service outcomes.
type Stats struct {
	Writes    metrics.Counter // write attempts
	WriteAcks metrics.Counter // writes that reached their quorum
	Reads     metrics.Counter // read attempts
	ReadsOK   metrics.Counter // reads served
	// StaleWrites counts writes and repairs refused by epoch fencing.
	StaleWrites metrics.Counter
	// StaleReads counts reads refused by per-key epoch fencing.
	StaleReads metrics.Counter
	// SessionStale counts reads refused because serving them would move
	// a session client backwards.
	SessionStale metrics.Counter
	// QuorumStale counts reads refused because the reachable replies
	// could not prove the last acknowledged version — the store refuses
	// rather than serve below an acked write.
	QuorumStale metrics.Counter
	// ReReplicas counts copies/fragments created by repair.
	ReReplicas metrics.Counter
	// BytesMoved counts modeled bytes shipped for placement and repair.
	BytesMoved metrics.Counter
}

// Availability returns served/attempted reads.
func (s *Stats) Availability() float64 {
	return metrics.Ratio(s.ReadsOK.Value(), s.Reads.Value())
}

// RTTFunc models the round-trip time in seconds to fetch size bytes
// from member a. Backends use it to derive read latency: the quorum'th
// smallest RTT among responding holders.
type RTTFunc func(a vnet.Addr, size int) float64

// DefaultRTT is a DSRC-like transfer model: 8 ms of access latency
// plus the serialization time of size bytes at 3 MB/s.
func DefaultRTT(_ vnet.Addr, size int) float64 {
	return 0.008 + float64(size)/(3<<20)
}

// Config tunes a backend. The zero value is completed by Validate:
// N=3, W and R majority (2), K=4, M=2, FragAck=K+M, Eventual
// consistency, dwell placement, DefaultRTT.
type Config struct {
	// N is the whole-object copy count (Replicated backend).
	N int
	// W is the write quorum: a write is acked once W copies are placed.
	W int
	// R is the read quorum: a read needs R online holders to answer.
	// W+R > N is required (quorum intersection).
	R int

	// K and M are the erasure-code data and parity fragment counts
	// (ErasureCoded backend): K+M fragments are spread, any K distinct
	// ones reconstruct. K >= 1, M >= 0, K+M <= 255.
	K, M int
	// FragAck is the erasure-code write quorum in members: a write is
	// acked once its fragments rest on at least FragAck distinct
	// members. Default K+M (fully spread, one fragment per member when
	// the fleet allows); must be > M so an acked, fully-spread write
	// survives M member losses.
	FragAck int

	// Consistency selects eventual / session / linearizable.
	Consistency Consistency
	// Placement must be PlaceDwell, the one ranking there is.
	Placement Placement
	// RetainOffline keeps copies held by offline members (sleep model);
	// when false an offline holder's copies are dropped at repair
	// (departure model).
	RetainOffline bool
	// RTT models member fetch latency; nil means DefaultRTT.
	RTT RTTFunc
}

// Validate fills defaults and rejects inconsistent quorums.
func (c *Config) Validate() error {
	if c.N == 0 {
		c.N = 3
	}
	if c.W == 0 {
		c.W = c.N/2 + 1
	}
	if c.R == 0 {
		c.R = c.N - c.W + 1
	}
	if c.K == 0 {
		c.K = 4
		if c.M == 0 {
			c.M = 2
		}
	}
	if c.FragAck == 0 {
		c.FragAck = c.K + c.M
	}
	if c.RTT == nil {
		c.RTT = DefaultRTT
	}
	if c.N < 1 || c.W < 1 || c.R < 1 {
		return fmt.Errorf("store: quorums must be >= 1 (N=%d W=%d R=%d)", c.N, c.W, c.R)
	}
	if c.W > c.N || c.R > c.N {
		return fmt.Errorf("store: W and R cannot exceed N (N=%d W=%d R=%d)", c.N, c.W, c.R)
	}
	if c.W+c.R <= c.N {
		return fmt.Errorf("store: W+R must exceed N for quorum intersection (N=%d W=%d R=%d)", c.N, c.W, c.R)
	}
	if c.K < 1 || c.M < 0 || c.K+c.M > 255 {
		return fmt.Errorf("store: erasure code needs 1 <= K, 0 <= M, K+M <= 255 (K=%d M=%d)", c.K, c.M)
	}
	if c.FragAck <= c.M || c.FragAck > c.K+c.M {
		return fmt.Errorf("store: FragAck must be in (M, K+M] so acked writes survive (K=%d M=%d FragAck=%d)", c.K, c.M, c.FragAck)
	}
	if c.Consistency < Eventual || c.Consistency > Linearizable {
		return fmt.Errorf("store: unknown consistency level %d", c.Consistency)
	}
	if c.Placement != PlaceDwell {
		return fmt.Errorf("store: unknown placement %d", c.Placement)
	}
	return nil
}

// sessions tracks each client's per-key version watermark — the
// client's version vector over the keys it has touched. Monotonic
// reads compare against it; acked writes and served reads advance it.
type sessions map[ClientID]map[Key]Version

func (s sessions) watermark(c ClientID, k Key) Version {
	if c == "" {
		return 0
	}
	return s[c][k]
}

func (s sessions) advance(c ClientID, k Key, v Version) {
	if c == "" {
		return
	}
	m := s[c]
	if m == nil {
		m = make(map[Key]Version)
		s[c] = m
	}
	if v > m[k] {
		m[k] = v
	}
}

// rankEntry pairs a candidate with its placement sort keys.
type rankEntry struct {
	addr vnet.Addr
	tier int
	load int
}

// rankOnline returns the view's online members not in exclude, ordered
// by dwell tier descending, then load ascending, then address.
// The returned slice is valid until the next call (shared scratch).
func rankOnline(scratch *[]rankEntry, v View, load map[vnet.Addr]int, exclude func(vnet.Addr) bool) []rankEntry {
	es := (*scratch)[:0]
	for _, a := range v.Members() {
		if !v.Online(a) || (exclude != nil && exclude(a)) {
			continue
		}
		es = append(es, rankEntry{addr: a, tier: mobility.DwellTier(v.Dwell(a)), load: load[a]})
	}
	slices.SortFunc(es, func(x, y rankEntry) int {
		if x.tier != y.tier {
			return y.tier - x.tier // longest dwell first
		}
		if x.load != y.load {
			return x.load - y.load // least loaded first
		}
		switch {
		case x.addr < y.addr:
			return -1
		case x.addr > y.addr:
			return 1
		}
		return 0
	})
	*scratch = es
	return es
}

// quantile returns the q'th smallest value (1-based) of rtts, sorting
// in place. It assumes 1 <= q <= len(rtts).
func quantile(rtts []float64, q int) float64 {
	slices.Sort(rtts)
	return rtts[q-1]
}

// Put writes data under key through b, stamped with b's current view
// epoch — the everyday client call. The store keeps data without copying
// it (WriteReq.Data): the caller must not modify it afterwards.
func Put(b Backend, client ClientID, key Key, data []byte) WriteAck {
	return b.Write(WriteReq{Client: client, Key: key, Data: data, Epoch: b.View().Epoch()})
}

// PutSized writes a modeled-size object (no payload bytes) under key.
func PutSized(b Backend, client ClientID, key Key, size int) WriteAck {
	return b.Write(WriteReq{Client: client, Key: key, Size: size, Epoch: b.View().Epoch()})
}

// Get reads key through b at b's current view epoch. The result's Data
// may alias stored bytes (ReadResult.Data) and must not be modified or
// appended to.
func Get(b Backend, client ClientID, key Key) (ReadResult, bool) {
	return b.Read(ReadReq{Client: client, Key: key, Epoch: b.View().Epoch()})
}

// Fix runs one repair pass at b's current view epoch.
func Fix(b Backend) int {
	return b.Repair(RepairReq{Epoch: b.View().Epoch()})
}
