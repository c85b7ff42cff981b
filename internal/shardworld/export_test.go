package shardworld

// Accessors only the tests read. The execution census keeps the
// program to what a run executes; these stay here for the tests.

// ChurnSchedule returns the tick each vehicle id becomes active and the
// tick it departs (math.MaxInt32 for never), as pure functions of the
// config. Exposed so invariant checks can recompute the expected fleet.
func ChurnSchedule(cfg Config) (birth, death []int32, err error) {
	if err := cfg.normalize(); err != nil {
		return nil, nil, err
	}
	sched := churnSchedule(&cfg)
	return sched[:cfg.Vehicles], sched[cfg.Vehicles:], nil
}
