package geo

// idPageBits sizes an id-table page: 1<<idPageBits consecutive ids.
const idPageBits = 10

// idTable maps non-negative int32 ids to values, the zero value meaning
// "absent". It is the two-level layout radio.Medium keeps its handlers
// in: dir[id>>idPageBits] is the page holding id, nil until one of its
// ids is first set. Ids are sparse but clustered (vehicles from 0, RSUs
// from 1<<20), so a few pages cover them where one dense slice would span
// the gap, and a lookup is two loads where a map would hash and probe.
// The directory costs 8 bytes per 1024 ids below the largest one set.
type idTable[V comparable] struct {
	dir []*[1 << idPageBits]V
}

// get returns id's value, or the zero value when it has none. A negative
// id maps past the end of any directory set can have built, so it has
// none, and a lookup never allocates.
//
//vcloudlint:hotpath read on every index update, removal and position lookup
func (t *idTable[V]) get(id int32) V {
	if p := uint32(id) >> idPageBits; int(p) < len(t.dir) && t.dir[p] != nil {
		return t.dir[p][id&(1<<idPageBits-1)]
	}
	var zero V
	return zero
}

// set stores v at id. The first non-zero value stored on a page allocates
// it (and grows the directory to reach it); storing the zero value where
// no page exists is a no-op. A negative id has no slot, so set ignores it.
func (t *idTable[V]) set(id int32, v V) {
	if id < 0 {
		return
	}
	p := int(id >> idPageBits)
	if p >= len(t.dir) || t.dir[p] == nil {
		var zero V
		if v == zero {
			return
		}
		t.addPage(p)
	}
	t.dir[p][id&(1<<idPageBits-1)] = v
}

// addPage allocates page p, growing the directory to reach it.
func (t *idTable[V]) addPage(p int) {
	if p >= len(t.dir) {
		//vcloudlint:allow hotalloc the directory grows, and a page is allocated, once per page of ids first indexed; a warm index never reaches here
		t.dir = append(t.dir, make([]*[1 << idPageBits]V, p+1-len(t.dir))...)
	}
	t.dir[p] = new([1 << idPageBits]V)
}
