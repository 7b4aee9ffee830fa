package load

import (
	"testing"
	"time"

	"mobirep/internal/replica"
	"mobirep/internal/tree"
)

func TestRunTreeValidation(t *testing.T) {
	if _, err := Run(Scenario{Stations: 7, Sessions: 0, Mode: replica.Static2()}); err == nil {
		t.Error("Run accepted a tree with zero sessions")
	}
	if _, err := Run(Scenario{Stations: 7, Sessions: 10, Mode: replica.Static2(), Shards: 3}); err == nil {
		t.Error("Run accepted a tree with a non-power-of-two shard count")
	}
}

// TestRunTreeSmallFleet is the tree drive in miniature: a seven-station
// binary tree, motion every 25 reads, a placement policy shedding relay
// copies under the writes. Fault-free links mean every read must
// succeed and every handoff must arrive warm.
func TestRunTreeSmallFleet(t *testing.T) {
	res, err := Run(Scenario{
		Stations:     7,
		Sessions:     200,
		Shards:       2,
		Mode:         replica.Static2(),
		Placement:    tree.Policy{Kind: tree.PolicyT1, K: 2},
		Duration:     300 * time.Millisecond,
		HandoffEvery: 25,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Tree
	if res.Sessions != 200 || tr.Stations != 7 || tr.Leaves != 4 {
		t.Fatalf("result identity wrong: %+v", res)
	}
	if res.SessionsPerSec <= 0 || res.AttachSeconds <= 0 {
		t.Fatalf("attach metrics not measured: %+v", res)
	}
	if res.Ops == 0 || res.Samples == 0 {
		t.Fatalf("drive phase issued no reads: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("fault-free tree run reported %d errors", res.Errors)
	}
	if res.Writes == 0 {
		t.Fatalf("background writers committed nothing: %+v", res)
	}
	if tr.Handoffs == 0 {
		t.Fatalf("motion enabled but no handoffs completed: %+v", res)
	}
	if tr.ColdHandoffs != 0 {
		t.Fatalf("%d handoffs arrived cold with no root restart", tr.ColdHandoffs)
	}
	if res.P99 < res.P50 || res.Max < res.P99 {
		t.Fatalf("percentiles out of order: p50=%v p99=%v max=%v", res.P50, res.P99, res.Max)
	}
	if h := tr.Handoff; h.P99 < h.P50 || h.Max < h.P99 {
		t.Fatalf("handoff percentiles out of order: %+v", h)
	}
	assertGoroutineBalance(t, res)
}
