package vcloud_test

import (
	"testing"
	"time"

	root "vcloud"
)

func TestSeconds(t *testing.T) {
	if root.Seconds(1.5) != 1500*time.Millisecond {
		t.Error("Seconds conversion wrong")
	}
}
