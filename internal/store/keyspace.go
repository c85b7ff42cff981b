package store

import (
	"fmt"
	"slices"

	"vcloud/internal/vnet"
)

// frag is one piece of an object held by a member. Under the erasure
// code it is a fragment: shard index, the version it belongs to and that
// version's sizes. The sizes ride on the fragment, not the object,
// because a read served below the newest write must reassemble and price
// the version it serves. A replicated whole copy is the single fragment
// of its member's row, of index 0 and with zero sizes (Replicated prices
// every copy at its object's size).
//
// data is the shard or the whole copy; obj is the written object itself
// when data is a window of it (Encode aliases whole data shards), nil
// for parity, a copied ragged shard, a whole copy and anything a rebuild
// or a repair produced. Both are nil for modeled-size objects and for
// every erasure-code fragment below the object's acked version (see
// release).
type frag struct {
	version Version
	index   int
	size    int // modeled object bytes
	length  int // exact payload length for Join (when Data was given)
	data    []byte
	obj     []byte
}

// holder is one row of an object's holder table: a member and what it
// holds of the object — one whole copy under Replicated; under the
// erasure code one fragment per version it took part in (more when the
// fleet is smaller than K+M).
type holder struct {
	addr  vnet.Addr
	frags []frag
}

// object is the coordinator's record of one key, under either backend.
type object struct {
	size    int     // modeled bytes of the latest write
	version Version // highest version ever allocated
	acked   Version // highest version that reached its write quorum
	epoch   uint64  // per-key fencing high-water (Linearizable)
	// holders is the holder table: one row per member holding at least
	// one fragment, ascending by address, so every sweep over it runs in
	// the deterministic order by construction.
	holders []holder
	// placed is a replicated key's current quorum set, ascending: the
	// members the latest write landed on (or repair's rebuild of it).
	// Every member of placed holds a version >= acked, so any R of them
	// prove the last acked write — reads count replies against placed,
	// never against stale ex-holders accumulated across partitions.
	placed []vnet.Addr
}

// find returns the table position of a: the index of its row when
// present, else the index a new row must be inserted at to keep the
// table sorted.
//
//vcloudlint:hotpath per placed fragment, per repair candidate and per departing member of every key
func (o *object) find(a vnet.Addr) (int, bool) {
	lo, hi := 0, len(o.holders)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if o.holders[mid].addr < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(o.holders) && o.holders[lo].addr == a
}

// tally counts the distinct fragment indices seen of one version.
type tally struct {
	version      Version
	size, length int       // the version's sizes, from its first fragment seen
	n            int       // distinct indices
	seen         [4]uint64 // bit i set: index i seen (K+M <= 255)
}

func (t *tally) has(index int) bool { return t.seen[index>>6]&(1<<(index&63)) != 0 }

// add counts index unless it was seen before.
func (t *tally) add(index int) {
	if !t.has(index) {
		t.seen[index>>6] |= 1 << (index & 63)
		t.n++
	}
}

// core is what both backends share: one object per key with its holder
// table, the store-wide and per-key epoch fences, the session ledger,
// the per-member load placement ranks by, and the audits (Forget,
// Holders, Durable). Each backend embeds one and adds its own Write,
// Read and Repair rules.
type core struct {
	cfg   Config
	view  View
	stats *Stats

	objects map[Key]*object
	sess    sessions
	// highWater is the highest epoch any writer has presented; fenced
	// writes and repairs below it are refused (split-brain protection).
	highWater uint64
	// load counts the keys each member holds a row of, feeding
	// PlaceDwell's tiebreak.
	load map[vnet.Addr]int
	// need is how many distinct fragment indices of one version rebuild
	// it: 1 for whole copies, K for erasure-code fragments.
	need int

	rankScratch []rankEntry
	keyScratch  []Key
	liveScratch []holder
	rttScratch  []float64
}

// newCore validates the configuration and creates an empty keyspace.
func newCore(cfg Config, view View, stats *Stats) (core, error) {
	if err := cfg.Validate(); err != nil {
		return core{}, err
	}
	if view == nil {
		return core{}, fmt.Errorf("store: view must not be nil")
	}
	if stats == nil {
		return core{}, fmt.Errorf("store: stats must not be nil")
	}
	return core{
		cfg:     cfg,
		view:    view,
		stats:   stats,
		objects: make(map[Key]*object),
		sess:    make(sessions),
		load:    make(map[vnet.Addr]int),
	}, nil
}

// View implements Backend.
func (c *core) View() View { return c.view }

// Stats implements Backend.
func (c *core) Stats() *Stats { return c.stats }

// accept fences an operation at the given epoch against the global
// high-water: it returns false (counting a stale write) when a higher
// epoch has written since. Epoch zero is the unfenced legacy path.
func (c *core) accept(epoch uint64) bool {
	if epoch == 0 {
		return true
	}
	if epoch < c.highWater {
		c.stats.StaleWrites.Inc()
		return false
	}
	c.highWater = epoch
	return true
}

// acceptKey fences an operation against one key's epoch high-water
// (Linearizable only). Reads also advance the key fence, so a write
// from an epoch older than any served read is refused afterwards.
func (c *core) acceptKey(o *object, epoch uint64, read bool) bool {
	if c.cfg.Consistency != Linearizable || epoch == 0 {
		return true
	}
	if epoch < o.epoch {
		if read {
			c.stats.StaleReads.Inc()
		} else {
			c.stats.StaleWrites.Inc()
		}
		return false
	}
	o.epoch = epoch
	return true
}

// admitWrite is the fenced preamble of every write: it counts the
// attempt, passes it through both fences and returns the key's object
// with the write's size recorded and a fresh version allocated. A
// refused write allocates no version.
func (c *core) admitWrite(req WriteReq) (*object, bool) {
	c.stats.Writes.Inc()
	if !c.accept(req.Epoch) {
		return nil, false
	}
	o := c.objects[req.Key]
	if o == nil {
		o = &object{}
		c.objects[req.Key] = o
	}
	if !c.acceptKey(o, req.Epoch, false) {
		return nil, false
	}
	o.size = req.Size
	if o.size == 0 {
		o.size = len(req.Data)
	}
	o.version++
	return o, true
}

// ack closes a write whose new version landed on placed (ascending): it
// is acknowledged once at least quorum members hold it, which raises the
// key's acked version and the writer's session watermark.
func (c *core) ack(req WriteReq, o *object, placed []vnet.Addr, quorum int) WriteAck {
	ack := WriteAck{Version: o.version, Placed: placed, Acked: len(placed) >= quorum}
	if ack.Acked {
		o.acked = o.version
		c.stats.WriteAcks.Inc()
		c.sess.advance(req.Client, req.Key, o.version)
	}
	return ack
}

// admitRead is the fenced preamble of every read: it counts the attempt
// and returns the key's object, or false when the key is unknown or its
// epoch fence refuses the reader.
func (c *core) admitRead(req ReadReq) (*object, bool) {
	c.stats.Reads.Inc()
	o := c.objects[req.Key]
	if o == nil || !c.acceptKey(o, req.Epoch, true) {
		return nil, false
	}
	return o, true
}

// serve closes a read that would return version v: it refuses (counting
// SessionStale) a read that would move a session client backwards, and
// otherwise counts the read served and raises the client's watermark.
func (c *core) serve(req ReadReq, v Version) bool {
	if c.cfg.Consistency >= Session && v < c.sess.watermark(req.Client, req.Key) {
		c.stats.SessionStale.Inc()
		return false
	}
	c.stats.ReadsOK.Inc()
	c.sess.advance(req.Client, req.Key, v)
	return true
}

// hold returns a's row of o's table, opening one at its sorted position
// (and counting the key against a's load) when a holds nothing of o yet.
// The pointer is valid until the table next changes.
func (c *core) hold(o *object, a vnet.Addr) *holder {
	i, ok := o.find(a)
	if !ok {
		o.holders = append(o.holders, holder{})
		copy(o.holders[i+1:], o.holders[i:])
		o.holders[i] = holder{addr: a}
		c.load[a]++
	}
	return &o.holders[i]
}

// drop closes row i of o's table in place and undoes hold's load count.
// slices.Delete clears the vacated tail slot, so the dropped fragments'
// bytes are not pinned.
func (c *core) drop(o *object, i int) {
	if a := o.holders[i].addr; c.load[a] > 0 {
		c.load[a]--
	}
	o.holders = slices.Delete(o.holders, i, i+1)
}

// online copies o's rows whose member is reachable right now into shared
// scratch, in table order: the one Online sweep a read or a repair makes
// per object. The result is valid until the next call.
func (c *core) online(o *object) []holder {
	live := c.liveScratch[:0]
	for _, h := range o.holders {
		if c.view.Online(h.addr) {
			live = append(live, h)
		}
	}
	c.liveScratch = live
	return live
}

// survivors returns the rows a repair pass may rebuild o from: its
// online rows. Under the departure model (RetainOffline false) an
// offline holder's storage is gone, so its row is dropped first and
// every row that stays is online. Placement may only start once the
// reads of the result are done.
func (c *core) survivors(o *object) []holder {
	if c.cfg.RetainOffline {
		return c.online(o)
	}
	for i := len(o.holders) - 1; i >= 0; i-- {
		if !c.view.Online(o.holders[i].addr) {
			c.drop(o, i)
		}
	}
	return o.holders
}

// bestVersion returns the tally of the highest version with at least
// need distinct fragment indices among the rows (the zero tally when
// there is none): the newest copy present, or the newest erasure-coded
// version that reconstructs. Each pass tallies the highest version below
// the ceiling; the newest version present nearly always reconstructs, so
// one pass over the fragments is the norm however many stale versions
// linger.
//
//vcloudlint:hotpath every read, every Durable audit and every key of every repair pass
func (c *core) bestVersion(rows []holder) tally {
	ceiling := ^Version(0)
	for {
		var t tally
		for _, h := range rows {
			for i := range h.frags {
				f := &h.frags[i]
				if f.version >= ceiling || f.version < t.version {
					continue
				}
				if f.version > t.version {
					t = tally{version: f.version, size: f.size, length: f.length}
				}
				t.add(f.index)
			}
		}
		if t.n >= c.need || t.version == 0 {
			return t
		}
		ceiling = t.version
	}
}

// Forget implements Backend: the member departed for good, and every
// copy and fragment it held is gone. It returns how many were dropped.
func (c *core) Forget(a vnet.Addr) int {
	dropped := 0
	for _, k := range c.sortedKeys() {
		o := c.objects[k]
		if i, has := o.find(a); has {
			dropped += len(o.holders[i].frags)
			c.drop(o, i)
		}
	}
	return dropped
}

// Holders returns the members holding a copy or fragment of the key,
// ascending (regardless of liveness).
func (c *core) Holders(k Key) []vnet.Addr {
	o := c.objects[k]
	if o == nil {
		return nil
	}
	hs := make([]vnet.Addr, len(o.holders))
	for i, h := range o.holders {
		hs[i] = h.addr
	}
	return hs
}

// Durable implements Backend: the best version that could still be
// rebuilt from every surviving copy or fragment, reachable or not.
func (c *core) Durable(k Key) (Version, bool) {
	o := c.objects[k]
	if o == nil {
		return 0, false
	}
	best := c.bestVersion(o.holders).version
	return best, best != 0
}

// sortedKeys returns the object keys ascending (shared scratch).
func (c *core) sortedKeys() []Key {
	ks := c.keyScratch[:0]
	for k := range c.objects {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	c.keyScratch = ks
	return ks
}
