// mobirep-load drives a large fleet of client sessions against in-process
// replica servers and reports attach throughput (sessions/sec) and
// read-latency percentiles. It is the load half of the scale story:
// conformance proves the sharded core behaves identically, this proves it
// carries six-figure session counts. Every run is one load.Scenario: the
// plain fleet drive over chaos-wrapped links, or, with -overload or -tree,
// the admission or tree phase on the same fleet.
//
//	mobirep-load -sessions 100000 -shards 0 -duration 5s
//	mobirep-load -sessions 5000 -duration 30s -floor-sessions-per-sec 500
//	mobirep-load -overload -capacity 3000 -factor 2 -duration 30s \
//	    -mem-soft-limit 67108864 -ceil-p99 100ms -max-goroutine-growth 8
//	mobirep-load -tree -stations 7 -sessions 5000 -mode ST2 -placement T1:2 \
//	    -handoff-every 100 -duration 30s -floor-sessions-per-sec 500
//
// The exit status is 1 when any gate fails — the ci.sh smokes: the attach
// rate under -floor-sessions-per-sec, read p99 over -ceil-p99, more
// goroutines than -max-goroutine-growth surviving teardown, a refused
// attach not answered by a Busy frame (-overload), or a handoff arriving
// cold (-tree).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mobirep/internal/load"
	"mobirep/internal/replica"
	"mobirep/internal/transport"
	"mobirep/internal/tree"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mobirep-load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		sessions = fs.Int("sessions", 100000, "concurrent client sessions to attach and drive")
		shards   = fs.Int("shards", 0, "server shard count (power of two, 0 = automatic)")
		mode     = fs.String("mode", "SW3", "allocation mode: SWk, ST1 or ST2")
		keys     = fs.Int("keys", 0, "shared key-pool size (0 = sessions/8)")
		duration = fs.Duration("duration", 5*time.Second, "steady-state drive phase length")
		workers  = fs.Int("workers", 0, "driver goroutines (0 = 16*GOMAXPROCS)")
		chaos    = fs.String("chaos", "drop=0.01,dup=0.01",
			"fault spec for every session's links (key=value pairs: drop, dup, reorder, delay, maxdelay, crash, part, partlen); empty disables faults; ignored by -tree and -overload")
		seed    = fs.Uint64("seed", 1994, "base seed for chaos and drive RNGs")
		timeout = fs.Duration("timeout", 25*time.Millisecond, "per-read timeout (only chaos-dropped frames wait)")
		writers = fs.Int("writers", 2, "background server-write goroutines")
		jsonOut = fs.Bool("json", false, "emit the result as JSON instead of text")
		floor   = fs.Float64("floor-sessions-per-sec", 0,
			"exit nonzero when the attach rate falls below this (0 disables; skipped under 100 sessions)")
		ceilP99 = fs.Duration("ceil-p99", 0,
			"exit nonzero when read p99 exceeds this (0 disables; skipped under 100 samples)")
		maxGoroutineGrowth = fs.Int("max-goroutine-growth", 0,
			"exit nonzero when more goroutines than this survive teardown (0 disables)")

		treeMode     = fs.Bool("tree", false, "run the fleet over a binary support-station tree instead of one flat server")
		stations     = fs.Int("stations", 7, "tree: binary-tree station count (heap order, station 0 the root)")
		handoffEvery = fs.Int("handoff-every", 0,
			"tree: each worker hands one of its MCs to a random other leaf every N reads (0 = no motion)")
		placementSpec = fs.String("placement", "none", "tree: per-relay placement policy (none, SWk, T1:m or T2:m)")

		overload    = fs.Bool("overload", false, "run the overload scenario instead of the plain fleet drive")
		capacity    = fs.Int("capacity", 5000, "overload: server admission cap (MaxSessions)")
		factor      = fs.Float64("factor", 2, "overload: attempted fleet is factor*capacity (replaces -sessions)")
		stalledFrac = fs.Float64("stalled-frac", 0.1,
			"overload: fraction of admitted clients whose reader wedges after attach (negative = none)")
		stallCap = fs.Int("stall-cap", 256<<10,
			"overload: outbox byte bound toward each stalled client before its link is killed")
		memSoftLimit = fs.Int64("mem-soft-limit", 0,
			"overload: soft watermark on accounted server bytes; idle-longest sessions are shed while over it (0 disables)")
		shedEvery  = fs.Duration("shed-every", 50*time.Millisecond, "overload: shed ticker period")
		retryAfter = fs.Duration("retry-after", 50*time.Millisecond, "overload: retry-after hint in Busy refusals")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	m, err := replica.ParseMode(*mode)
	if err != nil {
		fmt.Fprintln(stderr, "mobirep-load:", err)
		return 2
	}
	ccfg, err := transport.ParseChaosSpec(*chaos)
	if err != nil {
		fmt.Fprintln(stderr, "mobirep-load:", err)
		return 2
	}

	s := load.Scenario{
		Sessions: *sessions,
		Shards:   *shards,
		Mode:     m,
		Keys:     *keys,
		Duration: *duration,
		Workers:  *workers,
		Seed:     *seed,
		Timeout:  *timeout,
		Writers:  *writers,
	}
	switch {
	case *treeMode:
		// The tree drive brings no chaos: conformance owns the fault story;
		// this measures what the composition carries.
		if s.Placement, err = tree.ParsePolicy(*placementSpec); err != nil {
			fmt.Fprintln(stderr, "mobirep-load:", err)
			return 2
		}
		if *stations <= 0 {
			fmt.Fprintln(stderr, "mobirep-load: -tree needs -stations > 0")
			return 2
		}
		s.Stations = *stations
		s.HandoffEvery = *handoffEvery
	case *overload:
		// The overload scenario brings its own faults (stalled readers), so
		// the -chaos spec does not apply here.
		s.Sessions = int(*factor*float64(*capacity) + 0.5)
		s.Capacity = *capacity
		s.StalledFrac = *stalledFrac
		s.StallCap = *stallCap
		s.MemSoftLimit = *memSoftLimit
		s.ShedEvery = *shedEvery
		s.RetryAfter = *retryAfter
	default:
		s.Chaos = ccfg
	}
	res, err := load.Run(s)
	if err != nil {
		fmt.Fprintln(stderr, "mobirep-load:", err)
		return 1
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(stderr, "mobirep-load:", err)
			return 1
		}
	} else {
		printResult(stdout, s, res)
	}

	return gate(stderr, res, *floor, *ceilP99, *maxGoroutineGrowth)
}

// gate applies every exit-status gate to one run's result and returns 1
// if any fails. A zero bound disables its gate.
func gate(stderr io.Writer, res load.Result, floor float64, ceilP99 time.Duration, maxGoroutineGrowth int) int {
	code := 0
	if floor > 0 {
		// A handful of attaches measures scheduler noise, not attach
		// throughput; refuse to gate on it rather than flake.
		if res.Sessions < 100 {
			fmt.Fprintf(stderr, "mobirep-load: skipping -floor-sessions-per-sec gate: only %d sessions (rates under 100 sessions are noise)\n",
				res.Sessions)
		} else if res.SessionsPerSec < floor {
			fmt.Fprintf(stderr, "mobirep-load: attach rate %.0f sessions/sec is under the floor %.0f\n",
				res.SessionsPerSec, floor)
			code = 1
		}
	}
	if ceilP99 > 0 {
		if res.Samples < 100 {
			fmt.Fprintf(stderr, "mobirep-load: skipping -ceil-p99 gate: only %d samples (p99 of fewer than 100 is just the maximum)\n",
				res.Samples)
		} else if res.P99 > ceilP99 {
			fmt.Fprintf(stderr, "mobirep-load: read p99 %v is over the ceiling %v\n", res.P99, ceilP99)
			code = 1
		}
	}
	if maxGoroutineGrowth > 0 && res.GoroutinesAfter > res.GoroutinesBefore+maxGoroutineGrowth {
		fmt.Fprintf(stderr, "mobirep-load: %d goroutines before, %d after teardown (allowed growth %d): the run leaked\n",
			res.GoroutinesBefore, res.GoroutinesAfter, maxGoroutineGrowth)
		code = 1
	}
	if a := res.Admission; a != nil && a.BusyFrames != a.Rejected {
		fmt.Fprintf(stderr, "mobirep-load: %d refused attaches but %d Busy frames received: a client was dropped without being told\n",
			a.Rejected, a.BusyFrames)
		code = 1
	}
	if t := res.Tree; t != nil && t.ColdHandoffs > 0 {
		fmt.Fprintf(stderr, "mobirep-load: %d handoffs arrived cold with no root restart in the run\n", t.ColdHandoffs)
		code = 1
	}
	return code
}

// printResult writes the text report: the fleet sections every run has,
// then the section of whichever phase was on.
func printResult(w io.Writer, s load.Scenario, res load.Result) {
	fmt.Fprintf(w, "mobirep-load: %d sessions over %d shards (mode %v, %d keys, %d workers, %d writers)\n",
		res.Sessions, res.Shards, s.Mode, res.Keys, res.Workers, res.Writers)
	fmt.Fprintf(w, "  attach: %.2fs  %.0f sessions/sec\n", res.AttachSeconds, res.SessionsPerSec)
	fmt.Fprintf(w, "  drive:  %.2fs  %d reads (%.0f ops/sec), %d errors, %d background writes\n",
		res.DriveSeconds, res.Ops, res.OpsPerSec, res.Errors, res.Writes)
	fmt.Fprintf(w, "  read latency: p50=%v p90=%v p99=%v max=%v (%d samples)\n",
		res.P50, res.P90, res.P99, res.Max, res.Samples)
	if res.Tree == nil {
		fmt.Fprintf(w, "  shard occupancy: min=%d max=%d\n", res.ShardMin, res.ShardMax)
	}
	fmt.Fprintf(w, "  goroutines: %d before, %d after teardown\n", res.GoroutinesBefore, res.GoroutinesAfter)
	if a := res.Admission; a != nil {
		fmt.Fprintf(w, "  admission: capacity %d, %d admitted, %d rejected, %d Busy frames delivered\n",
			s.Capacity, a.Admitted, a.Rejected, a.BusyFrames)
		fmt.Fprintf(w, "  faults: %d stalled readers, %d sessions shed to the memory budget\n", a.Stalled, a.Shed)
		fmt.Fprintf(w, "  memory: heap peak %d bytes, accounted peak %d bytes\n", a.HeapPeakBytes, a.MemAccountPeak)
	}
	if t := res.Tree; t != nil {
		fmt.Fprintf(w, "  tree: %d stations / %d leaves (placement %v)\n", t.Stations, t.Leaves, s.Placement)
		fmt.Fprintf(w, "  handoffs: %d (%d cold)  latency p50=%v p99=%v max=%v\n",
			t.Handoffs, t.ColdHandoffs, t.Handoff.P50, t.Handoff.P99, t.Handoff.Max)
	}
}
