package vcloud_test

import (
	"testing"
	"time"

	root "vcloud"
)

func TestNewHighwayScenarioDefaults(t *testing.T) {
	s, err := root.NewHighwayScenario(root.HighwayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.VehicleIDs()); got != 40 {
		t.Errorf("default vehicles = %d, want 40", got)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestNewCityScenario(t *testing.T) {
	s, err := root.NewCityScenario(root.CityOptions{Seed: 2, Blocks: 3, Vehicles: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.VehicleIDs()); got != 10 {
		t.Errorf("vehicles = %d", got)
	}
}

func TestNewParkingLotScenarioHasGateRSU(t *testing.T) {
	s, err := root.NewParkingLotScenario(root.ParkingLotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.RSUs) != 1 {
		t.Errorf("RSUs = %d, want gate RSU", len(s.RSUs))
	}
}

func TestDeployCloudAndRunTasks(t *testing.T) {
	s, err := root.NewParkingLotScenario(root.ParkingLotOptions{Vehicles: 10})
	if err != nil {
		t.Fatal(err)
	}
	stats := &root.CloudStats{}
	cloud, err := root.DeployCloud(s, root.Stationary, stats)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	done := 0
	for i := 0; i < 5; i++ {
		if err := cloud.SubmitAnywhere(root.Task{Ops: 500, InputBytes: 100, OutputBytes: 100},
			func(r root.TaskResult) {
				if r.OK {
					done++
				}
			}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if done != 5 {
		t.Errorf("completed %d/5 tasks via facade", done)
	}
	if _, err := root.DeployCloud(s, root.Stationary, nil); err == nil {
		t.Error("nil stats should error")
	}
}

func TestSeconds(t *testing.T) {
	if root.Seconds(1.5) != 1500*time.Millisecond {
		t.Error("Seconds conversion wrong")
	}
}
