package vcloud

import (
	"testing"
	"time"

	"vcloud/internal/vnet"
)

// TestLateAckDeliversDeadline: a fenced controller parks a finished
// outcome until its armed standby acks the checkpoint that carries it.
// When that ack lands after the task's deadline, the submitter sees the
// deadline failure a late vote gets, not a completion the deadline
// forbids.
func TestLateAckDeliversDeadline(t *testing.T) {
	const standby = vnet.Addr(1)
	c, k := bareController(t, ControllerConfig{Fencing: true}, standby)
	c.lead.armed[standby] = armedStandby{at: k.Now()}
	var res TaskResult
	fired := 0
	id, err := c.Submit(Task{Ops: 1000, Deadline: k.Now() + 2*time.Second}, func(r TaskResult) { res, fired = r, fired+1 })
	if err != nil {
		t.Fatal(err)
	}
	r := c.tasks[id].replicas[0]
	c.onResult(vnet.Message{Origin: r.assignee, Payload: resultMsg{ID: id, Attempt: r.attempt, Value: 7}}, r.assignee)
	if fired != 0 || len(c.lead.parked) != 1 {
		t.Fatalf("%d callbacks, %d parked: the outcome must wait for the standby's ack", fired, len(c.lead.parked))
	}
	seq := c.lead.parked[0].po.Seq
	if err := k.Run(k.Now() + 3*time.Second); err != nil {
		t.Fatal(err)
	}
	c.onCkptAck(vnet.Message{Origin: standby, Payload: ackMsg{Seq: seq}}, standby)
	if fired != 1 || res.OK || res.Reason != ReasonDeadline {
		t.Fatalf("%d callbacks, result %+v; want one deadline failure", fired, res)
	}
	if c.stats.Completed.Value() != 0 || c.stats.Failed.Value() != 1 {
		t.Errorf("completed=%d failed=%d, want the outcome counted as failed", c.stats.Completed.Value(), c.stats.Failed.Value())
	}
}
