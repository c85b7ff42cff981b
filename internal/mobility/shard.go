package mobility

import (
	"math"

	"vcloud/internal/geo"
	"vcloud/internal/sim"
)

// Hash draw domains for the shard-invariant stepper. Distinct tags keep
// the spawn, turn and speed draws decorrelated even when the other
// counters collide.
const (
	drawSpawn uint64 = 0x5b
	drawTurn  uint64 = 0x71
	drawSpeed uint64 = 0x9d
)

// ShardVehicle is the vehicle state used by the geo-sharded world. Unlike
// the Manager's road-network vehicles it is a plain value: a handoff
// between shards is a struct copy carried through one cross-shard event,
// after which the new owner continues the trajectory bit-for-bit.
//
// All randomness in its evolution comes from counter hashes keyed by
// (world seed, vehicle id, tick) — never from a shared RNG stream — so
// the trajectory is a pure function of the model and is identical no
// matter which shard executes each step, or how the world is sharded.
type ShardVehicle struct {
	ID      int32
	Pos     geo.Point
	Heading float64 // radians
	Speed   float64 // m/s
	// OdoMM is the odometer in integer millimeters. Integer accumulation
	// makes fleet-total distance an exact sum: per-shard subtotals add up
	// to the serial total regardless of grouping.
	OdoMM int64
}

// SpawnShardVehicle places vehicle id deterministically inside bounds with
// a hash-drawn heading and a speed in [speedMin, speedMax].
func SpawnShardVehicle(seed uint64, id int32, bounds geo.Rect, speedMin, speedMax float64) ShardVehicle {
	u := uint64(uint32(id))
	return ShardVehicle{
		ID: id,
		Pos: geo.Point{
			X: bounds.Min.X + sim.HashUnit(seed, drawSpawn, u, 0)*bounds.Width(),
			Y: bounds.Min.Y + sim.HashUnit(seed, drawSpawn, u, 1)*bounds.Height(),
		},
		Heading: sim.HashUnit(seed, drawSpawn, u, 2) * 2 * math.Pi,
		Speed:   speedMin + sim.HashUnit(seed, drawSpawn, u, 3)*(speedMax-speedMin),
	}
}

// Step advances the vehicle by one tick of dt seconds: heading jitter,
// an occasional hash-phased speed redraw, straight-line motion, and a
// reflective bounce off the world edges. The update reads nothing but its
// arguments and the receiver, so any shard that owns the state computes
// the identical next state.
func (v *ShardVehicle) Step(seed uint64, tick uint64, bounds geo.Rect, dt, speedMin, speedMax float64) {
	u := uint64(uint32(v.ID))
	v.Heading += (sim.HashUnit(seed, drawTurn, u, tick) - 0.5) * 0.6
	// Redraw the cruise speed every 32 ticks, phase-shifted per vehicle so
	// the fleet does not resample in lock-step.
	if (tick+u)%32 == 0 {
		v.Speed = speedMin + sim.HashUnit(seed, drawSpeed, u, tick)*(speedMax-speedMin)
	}
	step := v.Speed * dt
	v.Pos.X += math.Cos(v.Heading) * step
	v.Pos.Y += math.Sin(v.Heading) * step
	if v.Pos.X < bounds.Min.X {
		v.Pos.X = 2*bounds.Min.X - v.Pos.X
		v.Heading = math.Pi - v.Heading
	} else if v.Pos.X > bounds.Max.X {
		v.Pos.X = 2*bounds.Max.X - v.Pos.X
		v.Heading = math.Pi - v.Heading
	}
	if v.Pos.Y < bounds.Min.Y {
		v.Pos.Y = 2*bounds.Min.Y - v.Pos.Y
		v.Heading = -v.Heading
	} else if v.Pos.Y > bounds.Max.Y {
		v.Pos.Y = 2*bounds.Max.Y - v.Pos.Y
		v.Heading = -v.Heading
	}
	v.OdoMM += int64(step * 1000)
}

// MaxStep returns the largest displacement one Step can produce. The
// sharded world's ghost halo must cover the radio range plus two of these
// (sender and receiver each move at most one step between ghost refresh
// and beacon evaluation).
func MaxStep(speedMax, dt float64) float64 { return speedMax * dt }
