package sim

import (
	"fmt"
	"testing"
	"time"

	"mobirep/internal/core"
	"mobirep/internal/cost"
	"mobirep/internal/sched"
	"mobirep/internal/stats"
	"mobirep/internal/workload"
)

// kernelModels are the two paper models the fused kernels support.
func kernelModels() []cost.Model {
	return []cost.Model{cost.NewConnection(), cost.NewMessage(0.0), cost.NewMessage(0.37), cost.NewMessage(1.0)}
}

// kernelPolicies pairs each fusable policy with its factory.
func kernelPolicies() []Factory {
	return []Factory{
		func() core.Policy { return core.NewST1() },
		func() core.Policy { return core.NewST2() },
		func() core.Policy { return core.NewSW(1) },
		func() core.Policy { return core.NewSW(3) },
		func() core.Policy { return core.NewSW(9) },
		// The largest fusable window: core.SW takes odd k only, so the
		// k = 64 boundary of the packed step is pinned in core's tests.
		func() core.Policy { return core.NewSW(63) },
		func() core.Policy { return core.NewT1(1) },
		func() core.Policy { return core.NewT1(3) },
		func() core.Policy { return core.NewT2(1) },
		func() core.Policy { return core.NewT2(3) },
		func() core.Policy { return core.NewT2(7) },
	}
}

// TestKernelEquivalenceBernoulli is the guard the fused path ships under:
// on the same seed the kernel's Result must equal the generic Replay's on
// the materialized schedule, field for field, including the bit pattern of
// the float totals.
func TestKernelEquivalenceBernoulli(t *testing.T) {
	const seed, n, warmup = 77, 20000, 500
	for _, m := range kernelModels() {
		for _, f := range kernelPolicies() {
			p := f()
			name := fmt.Sprintf("%s/%s", p.Name(), m.Name())
			kn, ok := NewKernel(f(), m)
			if !ok {
				t.Fatalf("%s: no fused kernel", name)
			}
			for _, theta := range []float64{0, 0.2, 0.5, 0.8, 1} {
				s := workload.Bernoulli(stats.NewRNG(seed), theta, n)
				want := Replay(f(), m, s, warmup)
				got := kn.ReplayBernoulli(stats.NewRNG(seed), theta, n, warmup)
				if got != want {
					t.Fatalf("%s theta=%v:\nfused   %+v\ngeneric %+v", name, theta, got, want)
				}
			}
		}
	}
}

// TestKernelEquivalenceDrifting repeats the guard under the period model.
func TestKernelEquivalenceDrifting(t *testing.T) {
	const seed, periods, opsPerPeriod = 41, 50, 300
	for _, m := range kernelModels() {
		for _, f := range kernelPolicies() {
			p := f()
			name := fmt.Sprintf("%s/%s", p.Name(), m.Name())
			kn, ok := NewKernel(f(), m)
			if !ok {
				t.Fatalf("%s: no fused kernel", name)
			}
			s, _ := workload.Drifting(stats.NewRNG(seed), periods, opsPerPeriod)
			want := Replay(f(), m, s, 0)
			got := kn.ReplayDrifting(stats.NewRNG(seed), periods, opsPerPeriod)
			if got != want {
				t.Fatalf("%s:\nfused   %+v\ngeneric %+v", name, got, want)
			}
		}
	}
}

// TestKernelRejectsUnknown pins which policies and models are fused and
// which keep the generic path.
func TestKernelRejectsUnknown(t *testing.T) {
	if _, ok := NewKernel(core.NewT1(3), cost.NewConnection()); !ok {
		t.Fatal("T1 must get a fused kernel")
	}
	if _, ok := NewKernel(core.NewT2(3), cost.NewMessage(0.5)); !ok {
		t.Fatal("T2 must get a fused kernel")
	}
	// The packed window is one uint64.
	for _, k := range []int{65, 95} {
		if _, ok := NewKernel(core.NewSW(k), cost.NewConnection()); ok {
			t.Fatalf("SW%d must not get a fused kernel", k)
		}
	}
	if _, ok := NewKernel(core.NewEWMA(0.5), cost.NewMessage(0.5)); ok {
		t.Fatal("EWMA must not get a fused kernel")
	}
	// Non-default initial window: fused kernels assume the all-writes fill.
	if _, ok := NewKernel(core.NewSWInitial(5, sched.Read), cost.NewConnection()); ok {
		t.Fatal("SW with all-reads initial window must not get a fused kernel")
	}
	type customModel struct{ cost.Connection }
	if _, ok := NewKernel(core.NewSW(3), customModel{}); ok {
		t.Fatal("custom cost model must not get a fused kernel")
	}
}

// TestStreamsMatchWorkload pins the contract that the streaming draws are
// bit-identical to the materializing generators at the same seed.
func TestStreamsMatchWorkload(t *testing.T) {
	const seed, n = 99, 5000
	want := workload.Bernoulli(stats.NewRNG(seed), 0.42, n)
	src := NewBernoulliStream(stats.NewRNG(seed), 0.42)
	for i, op := range want {
		if got := src.Next(); got != op {
			t.Fatalf("bernoulli stream diverges at %d: %v != %v", i, got, op)
		}
	}

	const periods, opsPerPeriod = 20, 250
	drifted, _ := workload.Drifting(stats.NewRNG(seed), periods, opsPerPeriod)
	dsrc := NewDriftingStream(stats.NewRNG(seed), opsPerPeriod)
	for i, op := range drifted {
		if got := dsrc.Next(); got != op {
			t.Fatalf("drifting stream diverges at %d: %v != %v", i, got, op)
		}
	}
}

// TestReplayStreamMatchesReplay checks the streaming generic path against
// the materializing one for a policy without a fused kernel.
func TestReplayStreamMatchesReplay(t *testing.T) {
	const seed, n, warmup = 13, 10000, 200
	m := cost.NewMessage(0.5)
	s := workload.Bernoulli(stats.NewRNG(seed), 0.6, n)
	want := Replay(core.NewT2(4), m, s, warmup)
	got := ReplayStream(core.NewT2(4), m, NewBernoulliStream(stats.NewRNG(seed), 0.6), n, warmup)
	if got != want {
		t.Fatalf("stream %+v != materialized %+v", got, want)
	}
}

// TestEstimatorsUnchangedByFusedPath pins the estimators' values against
// hand-rolled materialized replays: the fused/streaming rewrite must not
// move a single bit of the reported means.
func TestEstimatorsUnchangedByFusedPath(t *testing.T) {
	m := cost.NewMessage(0.8)
	opts := ExpectedOpts{Theta: 0.45, Ops: 8000, Warmup: 300, Trials: 5, Seed: 1994}
	got := EstimateExpected(swFactory(7), m, opts)
	var want stats.Summary
	for trial := 0; trial < opts.Trials; trial++ {
		rng := stats.NewRNG(opts.Seed + uint64(trial)*0x9e3779b9)
		s := workload.Bernoulli(rng, opts.Theta, opts.Warmup+opts.Ops)
		want.Add(Replay(core.NewSW(7), m, s, opts.Warmup).PerOp())
	}
	if got.Mean() != want.Mean() {
		t.Fatalf("EstimateExpected mean moved: %v != %v", got.Mean(), want.Mean())
	}

	aopts := AverageOpts{Periods: 40, OpsPerPeriod: 200, Trials: 5, Seed: 7}
	gotAvg := EstimateAverage(swFactory(3), m, aopts)
	var wantAvg stats.Summary
	for trial := 0; trial < aopts.Trials; trial++ {
		rng := stats.NewRNG(aopts.Seed + uint64(trial)*0x9e3779b9)
		s, _ := workload.Drifting(rng, aopts.Periods, aopts.OpsPerPeriod)
		wantAvg.Add(Replay(core.NewSW(3), m, s, 0).PerOp())
	}
	if gotAvg.Mean() != wantAvg.Mean() {
		t.Fatalf("EstimateAverage mean moved: %v != %v", gotAvg.Mean(), wantAvg.Mean())
	}
}

// TestSchedulePoolRoundTrip exercises the pooled buffers.
func TestSchedulePoolRoundTrip(t *testing.T) {
	s := GetSchedule(1024)
	if len(s) != 1024 {
		t.Fatalf("len = %d", len(s))
	}
	workload.FillBernoulli(stats.NewRNG(1), 0.5, s)
	PutSchedule(s)
	// A second Get of no larger size may reuse the buffer; contents must
	// be fully overwritten by FillBernoulli regardless.
	s2 := GetSchedule(512)
	workload.FillBernoulli(stats.NewRNG(2), 0, s2)
	for i, op := range s2 {
		if op != sched.Read {
			t.Fatalf("stale byte at %d after FillBernoulli(theta=0): %v", i, op)
		}
	}
	PutSchedule(s2)
	PutSchedule(nil) // must not panic
}

// BenchmarkKernelReplay reports the fused kernels' speed per policy of the
// sim-replay sweep, in ns per replayed request: 100k Bernoulli(0.4)
// requests under the message model (omega = 0.5), warm-up included.
//
//	go test -run '^$' -bench BenchmarkKernelReplay ./internal/sim
func BenchmarkKernelReplay(b *testing.B) {
	const n = 100_000
	m := cost.NewMessage(0.5)
	for _, name := range []string{"SW1", "SW3", "SW9", "T1(3)", "T2(3)", "ST1", "ST2"} {
		f, err := ParsePolicy(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			kn, ok := NewKernel(f(), m)
			if !ok {
				b.Fatalf("%s: no fused kernel", name)
			}
			rng := stats.NewRNG(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kn.ReplayBernoulli(rng, 0.4, n, 1000)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/request")
		})
	}
}

// BenchmarkRecordReplay prices the per-Replay instrumentation: two
// clock reads around the fused loop plus recordReplay's counter adds
// and one histogram observation. The acceptance budget is <5% of a
// Replay call; at ~100ns against the ~1.5ms a quick-mode Replay of
// 10^5 requests takes, the measured share is under 0.01%.
func BenchmarkRecordReplay(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		recordReplay(core.RuleSW, 100_000, time.Since(start))
	}
}
