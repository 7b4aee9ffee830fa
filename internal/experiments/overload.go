package experiments

import (
	"fmt"
	"time"

	"mobirep/internal/load"
	"mobirep/internal/replica"
	"mobirep/internal/report"
)

func init() {
	register(Experiment{
		ID:       "E25",
		Title:    "Graceful degradation under overload: admission, stalled readers, shedding",
		Artifact: "Overload protection beyond the paper's always-available SC (extension)",
		Run:      runE25,
	})
}

// runE25 sweeps the offered load from half the admission cap to twice it
// and reports the degradation curve: past 1.0x the overflow is refused
// with Busy frames while the admitted fleet's throughput and read-latency
// percentiles hold, 10% of admitted readers stall without wedging server
// memory (their outboxes are bounded), and the soft-watermark shedder
// stays quiet as long as the account is under budget. Numbers are
// timing-based, so like E23/E24 this experiment is excluded from the
// byte-for-byte determinism diff (mobirep-bench -skip E23,E24,E25,E26).
func runE25(cfg Config) []*report.Table {
	capacity := cfg.scale(20_000, 1_000)
	duration := time.Duration(cfg.scale(2_000, 250)) * time.Millisecond

	tbl := report.New(fmt.Sprintf(
		"E25: overload at the admission cap — capacity %s (SW3, 10%% stalled readers, 8 shards)",
		report.I(capacity)),
		"offered", "attempted", "admitted", "rejected", "busy/rejected",
		"reads/s", "p50", "p99", "heap peak MiB", "shed")

	for _, factor := range []float64{0.5, 1.0, 1.5, 2.0} {
		res, err := load.Run(load.Scenario{
			Sessions:     int(factor*float64(capacity) + 0.5),
			Capacity:     capacity,
			StalledFrac:  0.1,
			Mode:         replica.SW(3),
			Shards:       8,
			Duration:     duration,
			MemSoftLimit: 1 << 30,
			Seed:         cfg.Seed,
		})
		if err != nil {
			panic(fmt.Sprintf("E25: %v", err))
		}
		adm := res.Admission
		if adm.BusyFrames != adm.Rejected {
			panic(fmt.Sprintf("E25: %d rejected attaches but %d Busy frames delivered",
				adm.Rejected, adm.BusyFrames))
		}
		tbl.AddRow(fmt.Sprintf("%.1fx", factor),
			report.I(res.Sessions),
			report.I(adm.Admitted),
			report.I(adm.Rejected),
			fmt.Sprintf("%d/%d", adm.BusyFrames, adm.Rejected),
			report.F(res.OpsPerSec, 0),
			res.P50.String(),
			res.P99.String(),
			report.F(float64(adm.HeapPeakBytes)/(1<<20), 1),
			report.I(adm.Shed))
	}
	tbl.AddNote("every refused attach is answered with a Busy frame (busy/rejected must match); stalled readers keep requesting while their server->client direction buffers against a bounded outbox")
	tbl.AddNote("the healthy fleet's percentiles come only from admitted, non-stalled sessions — the degradation the paper's SC model does not have to consider")
	return []*report.Table{tbl}
}
