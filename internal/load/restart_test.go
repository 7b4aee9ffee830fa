package load

import (
	"flag"
	"testing"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/replica"
)

// -restart.soak stretches TestRestartSoakDurable to a CI-grade length;
// the default keeps `go test ./...` quick while still crossing several
// crash cadences.
var restartSoak = flag.Duration("restart.soak", 1200*time.Millisecond,
	"duration of the kill-and-restart soak in TestRestartSoakDurable")

// TestRestartSoakDurable is the crash-consistency soak under both
// durable policies: repeated power-cut restarts under live read/write
// traffic must lose no acknowledged write and show no client a version
// rollback, while every restart bumps the epoch exactly once and fences
// the warm fleet.
func TestRestartSoakDurable(t *testing.T) {
	for _, tc := range []struct {
		name string
		pol  db.SyncPolicy
	}{
		{"always", db.SyncAlways},
		{"group", db.SyncGroup},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(Scenario{
				Sessions:     8,
				Keys:         16,
				Mode:         replica.Static2(),
				Sync:         tc.pol,
				Duration:     *restartSoak / 2, // two policies share the budget
				RestartEvery: 120 * time.Millisecond,
				Seed:         7,
			})
			if err != nil {
				t.Fatal(err)
			}
			c := res.Crash
			if c.Restarts == 0 {
				t.Fatalf("soak finished without a single restart: %+v", res)
			}
			if c.LostAcked != 0 {
				t.Fatalf("lost %d acknowledged writes across %d restarts: %+v",
					c.LostAcked, c.Restarts, res)
			}
			if c.Rollbacks != 0 {
				t.Fatalf("%d client-visible rollbacks across %d restarts: %+v",
					c.Rollbacks, c.Restarts, res)
			}
			if res.Ops == res.Errors || res.Writes == 0 {
				t.Fatalf("soak drove no traffic: %+v", res)
			}
			if c.FinalEpoch != uint64(1+c.Restarts) {
				t.Fatalf("epoch %d after %d restarts, want %d (one bump per open)",
					c.FinalEpoch, c.Restarts, 1+c.Restarts)
			}
			// Static2 clients allocate on first read, so by the first crash
			// the whole fleet is warm and every restart must fence it.
			if c.Fences == 0 {
				t.Fatalf("no epoch fences across %d restarts of a warm fleet: %+v",
					c.Restarts, res)
			}
		})
	}
}

// TestRestartSoakNever: under sync=never the crash may take any unsynced
// suffix with it — LostAcked is legitimate — but recovery must still
// converge, the epoch must still bump per restart, and warm clients must
// still be fenced rather than silently resynced.
func TestRestartSoakNever(t *testing.T) {
	res, err := Run(Scenario{
		Sessions:     8,
		Keys:         16,
		Mode:         replica.Static2(),
		Sync:         db.SyncNever,
		Duration:     600 * time.Millisecond,
		RestartEvery: 120 * time.Millisecond,
		Seed:         11,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Crash
	if c.Restarts == 0 || res.Ops == res.Errors {
		t.Fatalf("soak did not run: %+v", res)
	}
	if c.FinalEpoch != uint64(1+c.Restarts) {
		t.Fatalf("epoch %d after %d restarts, want %d", c.FinalEpoch, c.Restarts, 1+c.Restarts)
	}
	if c.Fences == 0 {
		t.Fatalf("no fences across %d restarts of a warm fleet: %+v", c.Restarts, res)
	}
}
