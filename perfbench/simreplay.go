package main

import (
	"fmt"
	"math"
	"time"

	"mobirep/internal/analytic"
	"mobirep/internal/cost"
	"mobirep/internal/sim"
	"mobirep/internal/stats"
)

// sim-replay drives the simulator engine behind every paper figure:
// seeded Bernoulli schedules at nine write shares, replayed through seven
// policies under both cost models, with no network and no store.

var simPolicies = []string{"SW1", "SW3", "SW9", "T1(3)", "T2(3)", "ST1", "ST2"}

const (
	simOps    = 16384 // priced requests per replay
	simWarmup = 1000
)

type simJob struct {
	policy  int
	theta   float64
	ti      int
	msg     bool
	factory sim.Factory
	model   cost.Model
	exact   float64 // closed-form expected cost per request
}

// closedForm is the section 5/6/7 expectation of a policy's cost per
// relevant request.
func closedForm(name string, theta float64, msg bool) float64 {
	m := cost.Model(cost.NewConnection())
	if msg {
		m = cost.NewMessage(omega)
	}
	switch name {
	case "SW1":
		if msg {
			return analytic.ExpSW1Msg(theta, omega)
		}
		return analytic.ExpSWConn(1, theta)
	case "SW3", "SW9":
		k := 3
		if name == "SW9" {
			k = 9
		}
		if msg {
			return analytic.ExpSWMsg(k, theta, omega)
		}
		return analytic.ExpSWConn(k, theta)
	case "T1(3)":
		if msg {
			return analytic.ExactT1Expected(3, theta, m)
		}
		return analytic.ExpT1Conn(3, theta)
	case "T2(3)":
		if msg {
			return analytic.ExactT2Expected(3, theta, m)
		}
		return analytic.ExpT2Conn(3, theta)
	case "ST1":
		if msg {
			return analytic.ExpST1Msg(theta, omega)
		}
		return analytic.ExpST1Conn(theta)
	case "ST2":
		if msg {
			return analytic.ExpST2Msg(theta)
		}
		return analytic.ExpST2Conn(theta)
	}
	panic("unknown policy " + name)
}

func simJobs() ([]simJob, error) {
	var jobs []simJob
	for pi, name := range simPolicies {
		f, err := sim.ParsePolicy(name)
		if err != nil {
			return nil, err
		}
		for ti := 0; ti < 9; ti++ {
			theta := float64(ti+1) / 10
			for _, msg := range []bool{false, true} {
				m := cost.Model(cost.NewConnection())
				if msg {
					m = cost.NewMessage(omega)
				}
				jobs = append(jobs, simJob{policy: pi, theta: theta, ti: ti, msg: msg, factory: f, model: m,
					exact: closedForm(name, theta, msg)})
			}
		}
	}
	return jobs, nil
}

// replay runs one job on its round's schedule. Every policy of a round
// sees the same schedule: the RNG is seeded from the round and theta
// only. The fused kernel is used where the simulator has one, exactly
// as sim.EstimateExpected does.
func (j simJob) replay(seed uint64, round int) sim.Result {
	rng := stats.NewRNG(mix(mix(mix(seed)^uint64(round)) ^ uint64(j.ti)))
	p := j.factory()
	if kn, ok := sim.NewKernel(p, j.model); ok {
		return kn.ReplayBernoulli(rng, j.theta, simWarmup+simOps, simWarmup)
	}
	return sim.ReplayStream(p, j.model, sim.NewBernoulliStream(rng, j.theta), simWarmup+simOps, simWarmup)
}

// runRound replays every job once, nproc at a time, and returns each
// job's result and duration.
func runRound(jobs []simJob, seed uint64, round int) ([]sim.Result, []time.Duration) {
	res := make([]sim.Result, len(jobs))
	durs := make([]time.Duration, len(jobs))
	sim.Fan(len(jobs), func(i int) {
		t := time.Now()
		res[i] = jobs[i].replay(seed, round)
		durs[i] = time.Since(t)
	})
	return res, durs
}

func runSim(seed uint64, dur time.Duration, traced bool, n int) (*result, error) {
	sim.SetMaxWorkers(nproc())
	// Set-up builds the job table and its closed forms and replays one
	// untimed round, so pools and lazily built tables are warm.
	var su setups
	var jobs []simJob
	for i := 0; i < n; i++ {
		w := su.start()
		j, err := simJobs()
		if err != nil {
			return nil, err
		}
		runRound(j, seed, -1-i)
		su.stop(w)
		jobs = j
	}

	per := make([]stats.Summary, len(jobs))
	polNs := make([]int64, len(simPolicies))
	polOps := make([]int64, len(simPolicies))
	// Sized past any run up to a minute, so the heap holds the same
	// bookkeeping on every run.
	lat := make([]sample, 0, 1<<18)
	var connCost, msgCost, connOps, msgOps float64
	var tr *tracer
	rt := startRuntime()
	t0 := time.Now()
	if traced {
		tr = newTracer(t0)
	}
	rounds := 0
	for time.Since(t0) < dur {
		start := int64(time.Since(t0))
		res, durs := runRound(jobs, seed, rounds)
		for i, r := range res {
			j := jobs[i]
			if r.Ops != simOps {
				return nil, fmt.Errorf("%s theta=%.1f: priced %d requests, want %d", simPolicies[j.policy], j.theta, r.Ops, simOps)
			}
			per[i].Add(r.PerOp())
			if j.msg {
				msgCost += r.Cost
				msgOps += float64(r.Ops)
			} else {
				connCost += r.Cost
				connOps += float64(r.Ops)
			}
			polNs[j.policy] += int64(durs[i])
			polOps[j.policy] += int64(simWarmup + simOps)
			lat = append(lat, sample{start, int64(durs[i])})
			if tr != nil {
				id := tr.newID()
				tr.record(span{id: id, op: id, layer: lSim, start: start, end: start + int64(durs[i])})
			}
		}
		rounds++
	}
	elapsed := time.Since(t0)
	rts := rt.stop()
	if rounds < 8 {
		return nil, fmt.Errorf("only %d rounds in %v: too few to check the closed forms", rounds, dur)
	}

	// Each (policy, theta, model) mean must sit within its confidence
	// interval of the closed form. Five standard errors keep a false
	// alarm below one in a million per check, so across 126 checks and
	// many runs a failure means the engine, not chance.
	for i, j := range jobs {
		mean, se := per[i].Mean(), per[i].StdErr()
		if d := math.Abs(mean - j.exact); d > 5*se+1e-3 {
			model := "connection"
			if j.msg {
				model = "message"
			}
			return nil, fmt.Errorf("%s theta=%.1f %s model: replay mean %.5f, closed form %.5f (%.1f standard errors)",
				simPolicies[j.policy], j.theta, model, mean, j.exact, d/se)
		}
	}

	attempted := rounds * len(jobs)
	res := newResult(attempted, 0)
	ops := float64(attempted) * (simWarmup + simOps)
	su.report(res)
	res.headline = "replay"
	res.put("replay", lat)
	res.extra["conn_cost_per_op"] = connCost / connOps
	res.extra["msg_cost_per_op"] = msgCost / msgOps
	res.extra["heap_live_mib"] = rts.heapLive
	res.extra["cpu_us_per_op"] = rts.cpu.Seconds() * 1e6 / ops
	res.extra["error_rate"] = 0
	res.extra["replay_mops_s"] = ops / elapsed.Seconds() / 1e6
	L := res.layers
	for i, name := range simPolicies {
		L["sim.replay_ns_per_op."+layerKey(name)] = ratio(float64(polNs[i]), float64(polOps[i]))
	}
	rts.layers(L, ops)
	if tr != nil {
		self := tr.selfTime()
		for i, name := range layerNames {
			L[name+".self_us_per_op"] = float64(self[i]) / 1e3 / ops
		}
		res.tracer = tr
	}
	return res, nil
}

// mix is the murmur3 finaliser. Seeds built from it give unrelated
// streams; SplitMix64 seeds that differ by multiples of its increment
// would give the same stream shifted by a few steps.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// layerKey turns a policy name into a metric-name element: T1(3) -> T1_3.
func layerKey(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		switch c := name[i]; c {
		case '(':
			out = append(out, '_')
		case ')':
		default:
			out = append(out, c)
		}
	}
	return string(out)
}
