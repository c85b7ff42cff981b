// Package a exercises the epochstamp analyzer against local stand-ins
// for the fenced protocol messages of internal/vcloud.
package a

type Epoch uint64

type taskMsg struct {
	ID      int
	Replica int
	Epoch   Epoch
}

type checkpoint struct {
	Controller int
	Epoch      Epoch
}

// plain has no Epoch field; its literals are never the analyzer's
// business.
type plain struct {
	A, B int
}

// The storage service's fenced request types (internal/store) carry the
// epoch as a plain uint64 counter rather than the named Epoch type; the
// analyzer keys on the field name alone, so these stand-ins pin that.
type writeReq struct {
	Client string
	Key    string
	Size   int
	Epoch  uint64
}

type readReq struct {
	Client string
	Key    string
	Epoch  uint64
}

type repairReq struct {
	Epoch uint64
}

func violations() []any {
	return []any{
		taskMsg{ID: 1, Replica: -1}, // want `composite literal of fenced type taskMsg does not set Epoch`
		&taskMsg{ID: 2},             // want `composite literal of fenced type taskMsg does not set Epoch`
		checkpoint{Controller: 3},   // want `composite literal of fenced type checkpoint does not set Epoch`
	}
}

func storageViolations() []any {
	return []any{
		writeReq{Client: "c", Key: "k", Size: 64}, // want `composite literal of fenced type writeReq does not set Epoch`
		&readReq{Client: "c", Key: "k"},           // want `composite literal of fenced type readReq does not set Epoch`
	}
}

func nested() []taskMsg {
	return []taskMsg{
		{ID: 1, Epoch: 4},
		{ID: 2}, // want `composite literal of fenced type taskMsg does not set Epoch`
	}
}

func fine(e Epoch) []any {
	return []any{
		taskMsg{ID: 1, Replica: -1, Epoch: e}, // keyed, stamped
		taskMsg{},                             // deliberate zero value (codec error returns)
		taskMsg{7, -1, e},                     // positional literals are exhaustive by construction
		checkpoint{Epoch: e},
		plain{A: 1},
		writeReq{Client: "c", Key: "k", Epoch: 7}, // keyed, stamped
		readReq{Client: "c", Key: "k", Epoch: 7},
		repairReq{Epoch: 7},
		repairReq{}, // deliberate zero value: the unfenced repair path
	}
}

// A per-tier capacity report published as a fenced cluster message;
// these stand-ins pin that the analyzer covers such reports too.
type estimateMsg struct {
	Tier  int
	Bps   float64
	Loss  float64
	Queue int64
	Epoch Epoch
}

func estimateViolations() []any {
	return []any{
		estimateMsg{Tier: 2, Bps: 8e6, Loss: 0.02}, // want `composite literal of fenced type estimateMsg does not set Epoch`
		&estimateMsg{Tier: 0},                      // want `composite literal of fenced type estimateMsg does not set Epoch`
	}
}

func estimateFine(e Epoch) []any {
	return []any{
		estimateMsg{Tier: 2, Bps: 8e6, Loss: 0.02, Epoch: e},
		estimateMsg{}, // deliberate zero value (codec error returns)
	}
}
