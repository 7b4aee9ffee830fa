package sim

// Observability instrumentation for the measurement engine. Recording is
// amortized: the Fan participants count claimed indices locally and fold
// them into the registry once per participant, and the replay kernels
// record one counter add and one histogram observation per Replay call
// (never per request), so the fused loops keep their zero-allocation,
// zero-overhead-per-op guarantees.

import (
	"time"

	"mobirep/internal/core"
	"mobirep/internal/obs"
)

var (
	simReg = obs.Default()

	mFanCalls = simReg.Counter("mobirep_sim_fan_calls_total",
		"Fan invocations that ran with at least one helper.")
	mFanIndicesCaller = simReg.Counter(`mobirep_sim_fan_indices_total{participant="caller"}`,
		"Work indices executed, by which participant claimed them.")
	mFanIndicesHelper = simReg.Counter(`mobirep_sim_fan_indices_total{participant="helper"}`, "")
	mFanHelpers       = simReg.Counter("mobirep_sim_fan_helpers_total",
		"Pool workers actually enlisted by Fan calls (offers accepted).")
	gFanActive = simReg.Gauge("mobirep_sim_fan_active_participants",
		"Participants currently inside a Fan work loop.")

	mReplays   [core.NumRuleKinds]*obs.Counter // by core.RuleKind
	mReplayOps [core.NumRuleKinds]*obs.Counter

	// Replay speed in nanoseconds per request, amortized over one Replay
	// call. The fused kernels sit around 4-15 ns/op; the bucket ladder
	// climbs to 4 us so a catastrophic regression still lands inside it.
	hReplayNsPerOp = simReg.Histogram("mobirep_sim_replay_ns_per_op",
		"Nanoseconds per replayed request, one observation per Replay call.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096})
)

func init() {
	kinds := []struct {
		kind core.RuleKind
		name string
	}{
		{core.RuleSW, "sw"}, {core.RuleST1, "st1"}, {core.RuleST2, "st2"},
		{core.RuleT1, "t1"}, {core.RuleT2, "t2"},
	}
	for i, k := range kinds {
		help, opsHelp := "", ""
		if i == 0 {
			help = "Fused kernel replays, by kernel kind."
			opsHelp = "Requests replayed by fused kernels, by kernel kind."
		}
		mReplays[k.kind] = simReg.Counter(`mobirep_sim_replays_total{kind="`+k.name+`"}`, help)
		mReplayOps[k.kind] = simReg.Counter(`mobirep_sim_replay_ops_total{kind="`+k.name+`"}`, opsHelp)
	}
}

// recordReplay accounts one finished Replay call: n priced requests in
// elapsed wall time on the kernel of the given kind.
func recordReplay(kind core.RuleKind, n int, elapsed time.Duration) {
	mReplays[kind].Inc()
	if n <= 0 {
		return
	}
	mReplayOps[kind].Add(uint64(n))
	hReplayNsPerOp.Observe(float64(elapsed.Nanoseconds()) / float64(n))
}
