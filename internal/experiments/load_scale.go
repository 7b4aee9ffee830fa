package experiments

import (
	"fmt"
	"time"

	"mobirep/internal/load"
	"mobirep/internal/replica"
	"mobirep/internal/report"
	"mobirep/internal/transport"
)

func init() {
	register(Experiment{
		ID:       "E24",
		Title:    "Sharded server at fleet scale: chaos-wrapped sessions",
		Artifact: "Scale-out of the SC to a mobile fleet (extension)",
		Run:      runE24,
	})
}

// runE24 attaches a six-figure fleet of chaos-wrapped client sessions to
// the sharded server — once on a single shard (the old architecture's
// scheduling) and once across eight shards — and reports attach
// throughput, steady-state read throughput, and read-latency
// percentiles. Numbers are timing-based, so like E23 this experiment is
// excluded from the byte-for-byte determinism diff (mobirep-bench
// -skip E23,E24).
func runE24(cfg Config) []*report.Table {
	sessions := cfg.scale(120_000, 4_000)
	duration := time.Duration(cfg.scale(5_000, 250)) * time.Millisecond

	tbl := report.New(fmt.Sprintf(
		"E24: sharded SC under load — %s chaos-wrapped sessions (SW3, drop+dup faults)",
		report.I(sessions)),
		"shards", "attach sessions/s", "reads/s", "p50", "p99", "read errors", "occupancy min..max")

	run := func(shards int) load.Result {
		res, err := load.Run(load.Scenario{
			Sessions: sessions,
			Shards:   shards,
			Mode:     replica.SW(3),
			Duration: duration,
			Chaos:    transport.Config{Drop: 0.01, Dup: 0.01},
			Seed:     cfg.Seed,
		})
		if err != nil {
			panic(fmt.Sprintf("E24: %v", err))
		}
		tbl.AddRow(report.I(res.Shards),
			report.F(res.SessionsPerSec, 0),
			report.F(res.OpsPerSec, 0),
			res.P50.Round(time.Microsecond).String(),
			res.P99.Round(time.Microsecond).String(),
			report.I(res.Errors),
			fmt.Sprintf("%d..%d", res.ShardMin, res.ShardMax))
		return res
	}
	run(1)
	wide := run(8)
	tbl.AddNote("every session rides its own fault-injected link pair; reads are driven by %d workers while %d background writers keep all shards propagating",
		wide.Workers, wide.Writers)
	if !cfg.Quick {
		tbl.AddNote("acceptance: %s concurrent sessions sustained (>= 100000) with p99 read latency %v",
			report.I(sessions), wide.P99.Round(time.Microsecond))
	}
	return []*report.Table{tbl}
}
