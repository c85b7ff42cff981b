package vcloud

import (
	"testing"
	"time"

	"vcloud/internal/geo"
	"vcloud/internal/radio"
	"vcloud/internal/sim"
	"vcloud/internal/vnet"
)

// TestCheckpointReceivers: every handler an encoded checkpoint reaches
// acts on a valid one, and on a corrupt one counts CkptRejected, sends
// nothing and changes nothing. A fenced controller refuses a rival's
// checkpoint with a disarm-ack carrying its own epoch, a member becomes
// the sender's standby and acks, and a controller merges an abdicating
// rival's payload.
func TestCheckpointReceivers(t *testing.T) {
	const origin, self vnet.Addr = 50, 100
	data := EncodeCheckpoint(Checkpoint{Controller: origin, Seq: 3, Epoch: NextEpoch(0, origin)})
	fenced := ControllerConfig{Fencing: true}
	for _, tc := range []struct {
		name string
		// start puts the receiver on node and returns its handler and,
		// unless its answer is its only effect, whether a checkpoint
		// took effect.
		start func(t *testing.T, node *vnet.Node, stats *Stats) (vnet.Handler, func() bool)
		ack   *ackMsg // the answer to the valid checkpoint, nil for none
	}{
		{"rival controller", func(t *testing.T, node *vnet.Node, stats *Stats) (vnet.Handler, func() bool) {
			return startController(t, node, fenced, stats).onRivalCkpt, nil
		}, &ackMsg{Seq: 3, Disarm: true, Known: NextEpoch(0, self)}},
		{"member", func(t *testing.T, node *vnet.Node, stats *Stats) (vnet.Handler, func() bool) {
			m, err := NewMember(node, MemberConfig{CPU: 1000}, stats)
			if err != nil {
				t.Fatal(err)
			}
			return m.onCkpt, m.Standby
		}, &ackMsg{Seq: 3, Known: NextEpoch(0, origin)}},
		{"merging controller", func(t *testing.T, node *vnet.Node, stats *Stats) (vnet.Handler, func() bool) {
			return startController(t, node, fenced, stats).onMerge, func() bool { return stats.Merges.Value() != 0 }
		}, nil},
	} {
		for _, valid := range []bool{true, false} {
			payload := data
			if !valid {
				payload = data[:len(data)-1]
			}
			k := sim.NewKernel(1)
			m, err := radio.NewMedium(k, geo.Rect{Max: geo.Point{X: 1000, Y: 1000}}, radio.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			node, peer := placedNode(t, k, m, self), placedNode(t, k, m, origin)
			var acks []ackMsg
			peer.Handle(kindCkptAck, func(msg vnet.Message, _ vnet.Addr) { acks = append(acks, msg.Payload.(ackMsg)) })
			stats := &Stats{}
			handle, acted := tc.start(t, node, stats)
			sent := m.Stats().Sent
			handle(vnet.Message{Origin: origin, Payload: ckptMsg{Data: payload}}, origin)
			if !valid {
				changed := acted != nil && acted()
				if stats.CkptRejected.Value() != 1 || m.Stats().Sent != sent || changed {
					t.Errorf("%s, corrupt payload: rejected %d, sent %d frames, took effect %v; want rejected once, no frame, no effect",
						tc.name, stats.CkptRejected.Value(), m.Stats().Sent-sent, changed)
				}
				continue
			}
			if err := k.Run(time.Second); err != nil {
				t.Fatal(err)
			}
			if stats.CkptRejected.Value() != 0 || (acted != nil && !acted()) {
				t.Errorf("%s, valid payload: rejected %d, took no effect", tc.name, stats.CkptRejected.Value())
			}
			switch {
			case tc.ack == nil && len(acks) != 0:
				t.Errorf("%s, valid payload: acked %+v, want no ack", tc.name, acks)
			case tc.ack != nil && (len(acks) != 1 || acks[0] != *tc.ack):
				t.Errorf("%s, valid payload: acked %+v, want %+v", tc.name, acks, *tc.ack)
			}
		}
	}
}

// placedNode starts a node at the same point as every other placed node,
// so each hears the others' unicasts.
func placedNode(t *testing.T, k *sim.Kernel, m *radio.Medium, addr vnet.Addr) *vnet.Node {
	t.Helper()
	p := geo.Point{X: 500, Y: 500}
	node, err := vnet.NewNode(k, m, addr, vnet.Config{}, func() (geo.Point, float64, float64) { return p, 0, 0 })
	if err != nil {
		t.Fatal(err)
	}
	m.UpdatePosition(addr, p)
	return node
}

func startController(t *testing.T, node *vnet.Node, cfg ControllerConfig, stats *Stats) *Controller {
	t.Helper()
	c, err := NewController(node, cfg, stats)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
