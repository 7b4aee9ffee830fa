// Package load drives fleets of client sessions against in-process
// replica servers and measures what they carry. It has one engine, Run:
// a Scenario's fleet attaches, worker goroutines sweep it with timed
// reads while background writers keep every propagation path hot, and
// teardown detaches everything and waits for the goroutine count to
// settle back. Optional phases reshape that same fleet:
//
//   - Chaos: every session's link pair runs through transport.Chaos.
//   - Admission (Capacity > 0): the server admits Capacity sessions and
//     refuses the rest with Busy frames, a slice of the admitted readers
//     wedges, and a shed ticker enforces a soft memory limit.
//   - Crash (RestartEvery > 0): the store lives on db.CrashFS and the
//     server is killed and restarted on a cadence under live traffic.
//   - Tree (Stations > 0): the fleet spreads over the leaves of a binary
//     support-station tree and keeps moving between them.
//
// Run is the engine behind cmd/mobirep-load, experiments E24 and E25 and
// the ci.sh load smokes and durability soak, so all of them measure one
// code path.
package load

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/replica"
	"mobirep/internal/stats"
	"mobirep/internal/transport"
	"mobirep/internal/tree"
)

// writePause throttles each background writer between writes.
const writePause = 200 * time.Microsecond

// Scenario describes one load run: the fleet, and the optional phases
// that shape it. At most one phase may be on; a field that belongs to a
// phase that is off is rejected, never ignored.
type Scenario struct {
	// Sessions is the attempted fleet: every session tries to attach
	// (under Admission only the first Capacity get in). Required.
	Sessions int
	// Shards is the server shard count (power of two; every station's
	// under Tree); 0 picks the automatic count.
	Shards int
	// Mode is the per-key allocation mode; the zero value is not valid —
	// use replica.SW(k), replica.Static1() or replica.Static2().
	Mode replica.Mode
	// Keys is the shared key-pool size. A session's "home" key is its
	// index mod Keys, so the expected write fan-out per key is the fleet
	// over Keys. 0 defaults to the admitted fleet over 8, floored at 16.
	Keys int
	// Duration is how long the drive phase runs after attach; 0 defaults
	// to 2s. Under Crash it is the whole soak.
	Duration time.Duration
	// Workers is the number of driver goroutines, each owning a disjoint
	// slice of the readers. 0 defaults to 16*GOMAXPROCS capped at 128:
	// a worker parks for the full Timeout whenever a frame is lost, so
	// the pool must be much wider than the core count to keep reads
	// flowing around the blocked ones.
	Workers int
	// Seed derives every per-link chaos seed, per-worker RNG and, under
	// Crash, the journal cut at each power failure.
	Seed uint64
	// Timeout bounds each remote read; 0 defaults to 25ms, 250ms under
	// Tree, where a read can legitimately take one fetch round trip per
	// level. Over the in-memory transport only lost frames wait this
	// long.
	Timeout time.Duration
	// Writers is the number of background goroutines cycling writes over
	// the key pool (at the root under Tree); 0 defaults to 2.
	Writers int

	// Chaos, when not the zero value, wraps both directions of every
	// session's link in an auto-mode fault injector seeded from Seed and
	// the session index.
	Chaos transport.Config

	// Capacity turns on Admission: it is the server's MaxSessions cap.
	Capacity int
	// StalledFrac is the fraction of admitted sessions whose
	// server->client direction stalls for good after attach. 0 defaults
	// to 0.1; negative means none.
	StalledFrac float64
	// StallCap bounds the bytes buffered toward one stalled client before
	// its link is killed, mirroring a bounded outbox. 0 defaults to
	// 256KiB.
	StallCap int
	// MemSoftLimit is the server's soft watermark in accounted bytes,
	// enforced by a shed ticker during the drive phase; 0 disables it.
	MemSoftLimit int64
	// ShedEvery is the shed ticker period; 0 defaults to 50ms.
	ShedEvery time.Duration
	// RetryAfter is the hint carried in Busy refusals; 0 defaults to
	// 50ms.
	RetryAfter time.Duration

	// RestartEvery turns on Crash: it is the kill-and-restart cadence.
	RestartEvery time.Duration
	// Sync is the store's durability policy under Crash; the zero value
	// is db.SyncGroup.
	Sync db.SyncPolicy

	// Stations turns on Tree: it is the binary-tree size in heap order,
	// station 0 the root. Sessions are assigned round-robin over the
	// leaves.
	Stations int
	// Placement is the per-relay placement policy; the zero value holds
	// everything the protocol allocates.
	Placement tree.Policy
	// HandoffEvery makes each worker hand one of its MCs to a random
	// other leaf every N reads; 0 disables motion.
	HandoffEvery int
}

// Latency is an exact nearest-rank summary of one sample set (not a
// sketch). A tail percentile of a tiny set says little — p99 of fewer
// than 100 samples is the maximum — so gates should check Samples first.
type Latency struct {
	Samples            int
	P50, P90, P99, Max time.Duration
}

// Result is one run's measurements. The phase sections are nil unless
// their phase was on.
type Result struct {
	Sessions int // attempted fleet
	Shards   int
	Keys     int
	Workers  int
	Writers  int

	// Attach phase: wall time to build and attach every session, and the
	// resulting rate — the headline sessions/sec.
	AttachSeconds  float64
	SessionsPerSec float64

	// Drive phase, over the readers: every admitted session that is not
	// stalled. Errors counts reads that timed out or found the session
	// offline.
	DriveSeconds float64
	Ops          int
	OpsPerSec    float64
	Errors       int
	Writes       int
	WriteErrors  int

	// Latency summarizes the successful reads. The Crash phase keeps no
	// samples: its reads are mostly local hits at millions per second, so
	// a soak's sample set would cost hundreds of megabytes and say
	// nothing.
	Latency

	// Session spread across the server's shards at the end of the drive
	// phase (zero under Tree, which has one server per station).
	ShardMin, ShardMax int

	// Goroutine counts before the fleet was built and after teardown
	// settled; anything the run leaked shows as After > Before.
	GoroutinesBefore int
	GoroutinesAfter  int

	Admission *AdmissionStats `json:",omitempty"`
	Crash     *CrashStats     `json:",omitempty"`
	Tree      *TreeStats      `json:",omitempty"`
}

// AdmissionStats is the Admission phase's section of a Result.
type AdmissionStats struct {
	Admitted int
	Rejected int
	// BusyFrames counts Busy frames received by the refused clients. The
	// protocol promise is BusyFrames == Rejected: nobody is dropped
	// without being told.
	BusyFrames int
	// Stalled is how many admitted clients had their server->client
	// direction wedged; Shed is how many sessions the watermark shedder
	// evicted during the drive phase.
	Stalled int
	Shed    int
	// HeapPeakBytes is the largest live heap (runtime.HeapAlloc) and
	// MemAccountPeak the largest server-side accounted total
	// (Server.MemBytes) sampled during the drive phase: together they
	// bound whether the stalled readers wedged memory.
	HeapPeakBytes  uint64
	MemAccountPeak int64
}

// TreeStats is the Tree phase's section of a Result.
type TreeStats struct {
	Stations int
	Leaves   int
	// Handoffs counts completed handoffs, ColdHandoffs those that fell
	// back to a cold reattach (0 expected: the root never restarts here).
	Handoffs     int
	ColdHandoffs int
	// Handoff summarizes the time from the Handoff call to resync
	// completion.
	Handoff Latency
}

// member is one session of the fleet.
type member struct {
	cli   *replica.Client
	sess  *replica.Session // nil when refused; under Tree, mc tracks it
	mc    *tree.MC
	stall *transport.Chaos // Admission: the wedged server->client direction
	busy  atomic.Int64     // Busy frames the client received
	// seen is, under Crash, the highest version this client read per key
	// since its last epoch fence. Only the worker that owns the member
	// and the restarter (holding the world exclusively) touch it.
	seen map[string]uint64
}

// fleet is the state one Run shares between its phases.
type fleet struct {
	s      Scenario
	srv    *replica.Server // the server sessions attach to; nil under Tree
	tr     *tree.Tree
	leaves []int
	keys   []string
	m      []member
	crash  *crashWorld // nil unless Crash is on
}

// Run executes one scenario and tears everything down before returning.
func Run(s Scenario) (Result, error) {
	if err := s.validate(); err != nil {
		return Result{}, err
	}
	s.defaults()
	res := Result{
		Sessions:         s.Sessions,
		Keys:             s.Keys,
		Writers:          s.Writers,
		GoroutinesBefore: runtime.NumGoroutine(),
	}
	f, err := newFleet(s)
	if err != nil {
		return Result{}, err
	}

	// Attach phase. Under Admission it is sequential, so the admitted set
	// is deterministic — the first Capacity attempts land — and the
	// stalled slice can be chosen up front: a stall wrap must precede the
	// attach it wedges.
	attachWorkers := s.Workers
	if s.Capacity > 0 {
		attachWorkers = 1
	}
	start := time.Now()
	err = parallel(s.Sessions, attachWorkers, f.attach)
	res.AttachSeconds = time.Since(start).Seconds()
	res.SessionsPerSec = float64(s.Sessions) / res.AttachSeconds
	if err == nil {
		err = f.checkAttached(&res)
	}
	if err != nil {
		f.teardown(&res)
		return Result{}, err
	}
	var readers []int
	for i := range f.m {
		if m := &f.m[i]; (m.sess != nil || m.mc != nil) && m.stall == nil {
			readers = append(readers, i)
		}
	}
	if s.Capacity > 0 {
		f.subscribeStalled()
	}

	err = f.drive(readers, &res)
	res.Shards = f.server().Shards()
	if f.srv != nil {
		counts := f.srv.ShardSessions()
		res.ShardMin, res.ShardMax = slices.Min(counts), slices.Max(counts)
	}
	f.teardown(&res)
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

func (s *Scenario) validate() error {
	switch {
	case s.Sessions <= 0:
		return errors.New("load: Sessions must be positive")
	case s.Capacity < 0, s.RestartEvery < 0, s.Stations < 0, s.HandoffEvery < 0:
		return errors.New("load: Capacity, RestartEvery, Stations and HandoffEvery must not be negative")
	case s.Chaos.Manual:
		return errors.New("load: manual chaos cannot drive a load run")
	}
	var on []string
	for _, p := range []struct {
		name     string
		on, used bool
	}{
		{"chaos", s.Chaos != (transport.Config{}), false},
		{"admission", s.Capacity > 0, s.StalledFrac != 0 || s.StallCap != 0 ||
			s.MemSoftLimit != 0 || s.ShedEvery != 0 || s.RetryAfter != 0},
		{"crash", s.RestartEvery > 0, s.Sync != db.SyncGroup},
		{"tree", s.Stations > 0, s.Placement != (tree.Policy{}) || s.HandoffEvery != 0},
	} {
		if p.on {
			on = append(on, p.name)
		} else if p.used {
			return fmt.Errorf("load: %s settings given but the %s phase is off", p.name, p.name)
		}
	}
	if len(on) > 1 {
		return fmt.Errorf("load: phases %s cannot be combined", strings.Join(on, " and "))
	}
	return nil
}

func (s *Scenario) defaults() {
	if s.Keys == 0 {
		fleet := s.Sessions
		if s.Capacity > 0 && s.Capacity < fleet {
			fleet = s.Capacity
		}
		s.Keys = max(fleet/8, 16)
	}
	if s.Duration == 0 {
		s.Duration = 2 * time.Second
	}
	if s.Workers == 0 {
		s.Workers = min(16*runtime.GOMAXPROCS(0), 128)
	}
	s.Workers = min(s.Workers, s.Sessions)
	if s.Timeout == 0 {
		s.Timeout = 25 * time.Millisecond
		if s.Stations > 0 {
			s.Timeout = 250 * time.Millisecond
		}
	}
	if s.Writers == 0 {
		s.Writers = 2
	}
	if s.Capacity > 0 {
		if s.StalledFrac == 0 {
			s.StalledFrac = 0.1
		}
		if s.StallCap == 0 {
			s.StallCap = 256 << 10
		}
		if s.ShedEvery == 0 {
			s.ShedEvery = 50 * time.Millisecond
		}
		if s.RetryAfter == 0 {
			s.RetryAfter = 50 * time.Millisecond
		}
	}
}

// newFleet builds the server side — one server, a crash-prone durable
// server, or a station tree — and seeds the key pool.
func newFleet(s Scenario) (*fleet, error) {
	f := &fleet{s: s, m: make([]member, s.Sessions)}
	var err error
	switch {
	case s.Stations > 0:
		topo := tree.Binary(s.Stations)
		if err := topo.Validate(); err != nil {
			return nil, err
		}
		f.leaves = topo.Leaves()
		connect := func(child, parent int) (transport.Link, transport.Link, error) {
			a, b := transport.NewMemPair()
			return a, b, nil
		}
		f.tr, err = tree.Build(topo, db.NewStore(), s.Mode, s.Shards, s.Placement, connect)
	case s.RestartEvery > 0:
		f.crash, f.srv, err = newCrashWorld(s)
	default:
		f.srv, err = replica.NewServerShards(db.NewStore(), s.Mode, s.Shards)
	}
	if err != nil {
		return nil, err
	}
	if s.Capacity > 0 {
		err := f.srv.SetAdmission(replica.AdmissionConfig{MaxSessions: s.Capacity, RetryAfter: s.RetryAfter})
		if err != nil {
			return nil, err
		}
		f.srv.SetMemSoftLimit(s.MemSoftLimit)
	}
	f.keys = make([]string, s.Keys)
	for i := range f.keys {
		f.keys[i] = fmt.Sprintf("load-key-%d", i)
		if err := f.write(f.keys[i], []byte(fmt.Sprintf("v0-%d", i))); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// linkSeed derives session i's fault seed. The Knuth hash keeps
// neighbouring sessions off neighbouring fault streams.
func (f *fleet) linkSeed(i int) uint64 { return f.s.Seed + uint64(i)*2654435761 }

// stalls reports whether Admission wedges session i: every 1/StalledFrac-th
// index among the first Capacity, which are exactly the admitted ones.
func (f *fleet) stalls(i int) bool {
	if f.s.Capacity == 0 || f.s.StalledFrac <= 0 || i >= f.s.Capacity {
		return false
	}
	return i%max(int(1/f.s.StalledFrac), 1) == 0
}

// attach builds session i and attaches it. The client end is built
// first, so an in-memory Busy refusal is observed before TryAttach even
// returns.
func (f *fleet) attach(i int) error {
	m := &f.m[i]
	a, b := transport.NewMemPair()
	if f.tr != nil {
		mc, err := f.tr.AttachMC(f.leaves[i%len(f.leaves)], a, b)
		if err != nil {
			return err
		}
		mc.Client.Timeout = f.s.Timeout
		m.cli, m.mc = mc.Client, mc
		return nil
	}
	var sl, cl transport.Link = a, b
	var err error
	switch {
	case f.s.Chaos != (transport.Config{}):
		ccfg := f.s.Chaos
		ccfg.Seed = f.linkSeed(i)
		if sl, cl, err = transport.NewChaosPairOver(ccfg, a, b); err != nil {
			return err
		}
	case f.stalls(i):
		// Probability 1 with a horizon far past the run: the reader
		// wedges right after the handshake and never recovers.
		m.stall, err = transport.NewChaos(a, transport.Config{
			Seed: f.linkSeed(i), Stall: 1, StallFor: time.Hour, StallCap: f.s.StallCap,
		})
		if err != nil {
			return err
		}
		sl = m.stall
	}
	if m.cli, err = replica.NewClient(cl, f.s.Mode); err != nil {
		return err
	}
	m.cli.Timeout = f.s.Timeout
	m.cli.SetBusyHandler(func(time.Duration, string) { m.busy.Add(1) })
	if f.crash != nil {
		m.seen = make(map[string]uint64)
	}
	sess, err := f.srv.TryAttach(sl)
	switch {
	case err == nil:
		m.sess = sess
	case errors.Is(err, replica.ErrServerBusy):
		m.cli.Disconnect()
	default:
		return err
	}
	return nil
}

// checkAttached cross-checks the attach phase against the server and
// fills the Admission section.
func (f *fleet) checkAttached(res *Result) error {
	if f.srv == nil {
		return nil
	}
	var adm AdmissionStats
	for i := range f.m {
		switch m := &f.m[i]; {
		case m.sess == nil:
			adm.Rejected++
			adm.BusyFrames += int(m.busy.Load())
		case m.stall != nil:
			adm.Stalled++
		}
	}
	adm.Admitted = f.s.Sessions - adm.Rejected
	if got := f.srv.Sessions(); got != adm.Admitted {
		return fmt.Errorf("load: attached %d sessions, server counts %d", adm.Admitted, got)
	}
	if f.s.Capacity > 0 {
		res.Admission = &adm
	}
	return nil
}

// subscribeStalled builds the server-side subscriptions of the stalled
// clients. Their requests still reach the server (only the return
// direction is wedged), so a few reads of the home key make background
// writes propagate — straight into the stall buffer. The reads time out
// fast and are not part of the measured fleet.
func (f *fleet) subscribeStalled() {
	var wg sync.WaitGroup
	for i := range f.m {
		if f.m[i].stall == nil || f.m[i].sess == nil {
			continue
		}
		wg.Add(1)
		go func(cli *replica.Client, key string) {
			defer wg.Done()
			cli.Timeout = 2 * time.Millisecond
			for r := 0; r < f.s.Mode.K+1; r++ {
				_, _ = cli.Read(key)
			}
		}(f.m[i].cli, f.keys[i%len(f.keys)])
	}
	wg.Wait()
}

// server is where writes go: the root under Tree. Under Crash the caller
// holds the world for read, since a restart swaps it.
func (f *fleet) server() *replica.Server {
	if f.tr != nil {
		return f.tr.Stations[0].Server()
	}
	return f.srv
}

func (f *fleet) write(key string, payload []byte) error {
	if f.crash != nil {
		f.crash.mu.RLock()
		defer f.crash.mu.RUnlock()
	}
	it, err := f.server().Write(key, payload)
	if err == nil && f.crash != nil {
		f.crash.ack(key, it.Version)
	}
	return err
}

func (f *fleet) read(i int, key string) error {
	m := &f.m[i]
	if f.crash != nil {
		f.crash.mu.RLock()
		defer f.crash.mu.RUnlock()
	}
	it, err := m.cli.Read(key)
	if err == nil && m.seen != nil {
		if it.Version < m.seen[key] {
			f.crash.rollbacks.Add(1)
		}
		m.seen[key] = it.Version
	}
	return err
}

type workerStats struct {
	lats, handoffs  []time.Duration
	ops, errs, cold int
}

// drive runs the drive phase: workers sweep their slices of readers
// while writers (and, under Admission, the shedder and the memory
// sampler) run in the background, and under Crash this goroutine is the
// restarter.
func (f *fleet) drive(readers []int, res *Result) error {
	s := f.s
	stop := make(chan struct{})
	var bg sync.WaitGroup
	var writes, writeErrs atomic.Int64
	for wr := 0; wr < s.Writers; wr++ {
		bg.Add(1)
		go func(wr int) {
			defer bg.Done()
			payload := []byte(fmt.Sprintf("write-from-%d", wr))
			for i := wr; ; i += s.Writers {
				select {
				case <-stop:
					return
				default:
				}
				if err := f.write(f.keys[i%len(f.keys)], payload); err != nil {
					writeErrs.Add(1)
				} else {
					writes.Add(1)
				}
				time.Sleep(writePause)
			}
		}(wr)
	}
	var shed atomic.Int64
	var heapPeak atomic.Uint64
	var memPeak atomic.Int64
	if s.Capacity > 0 {
		bg.Add(2)
		go every(stop, &bg, s.ShedEvery, func() { shed.Add(int64(f.srv.ShedToBudget())) })
		var ms runtime.MemStats
		go every(stop, &bg, 25*time.Millisecond, func() {
			runtime.ReadMemStats(&ms)
			heapPeak.Store(max(heapPeak.Load(), ms.HeapAlloc))
			memPeak.Store(max(memPeak.Load(), f.srv.MemBytes()))
		})
	}

	workers := min(s.Workers, len(readers))
	perWorker := make([]workerStats, workers)
	start := time.Now()
	deadline := start.Add(s.Duration)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f.work(readers[w*len(readers)/workers:(w+1)*len(readers)/workers],
				stats.NewRNG(s.Seed^(uint64(w)+0x9e3779b97f4a7c15)), deadline, &perWorker[w])
		}(w)
	}
	var err error
	if f.crash != nil {
		err = f.restartLoop(deadline)
	}
	wg.Wait()
	res.DriveSeconds = time.Since(start).Seconds()
	close(stop)
	bg.Wait()
	res.Workers = workers
	res.Writes, res.WriteErrors = int(writes.Load()), int(writeErrs.Load())
	if res.Admission != nil {
		res.Admission.Shed = int(shed.Load())
		res.Admission.HeapPeakBytes = heapPeak.Load()
		res.Admission.MemAccountPeak = memPeak.Load()
	}

	var lats, handoffs []time.Duration
	cold := 0
	for _, st := range perWorker {
		res.Ops += st.ops
		res.Errors += st.errs
		cold += st.cold
		lats = append(lats, st.lats...)
		handoffs = append(handoffs, st.handoffs...)
	}
	res.OpsPerSec = float64(res.Ops) / res.DriveSeconds
	res.Latency = summarize(lats)
	if f.tr != nil {
		res.Tree = &TreeStats{
			Stations: s.Stations, Leaves: len(f.leaves),
			Handoffs: len(handoffs), ColdHandoffs: cold, Handoff: summarize(handoffs),
		}
	}
	return err
}

// work is one driver goroutine: it sweeps its readers until the
// deadline, timing every read. The read mix is per phase. Most reads hit
// the reader's home key, so subscriptions concentrate and writes fan
// out; flat and tree fleets add a uniformly random key one read in 16;
// the admitted fleet keeps to its home key; the crash soak reads
// uniformly, so every client holds warm copies for each crash to fence.
func (f *fleet) work(readers []int, rng *stats.RNG, deadline time.Time, st *workerStats) {
	st.lats = make([]time.Duration, 0, 4096)
	for j := 0; ; j = (j + 1) % len(readers) {
		if time.Now().After(deadline) {
			return
		}
		i := readers[j]
		key := f.keys[i%len(f.keys)]
		switch {
		case f.crash != nil:
			key = f.keys[rng.Intn(len(f.keys))]
		case f.s.Capacity == 0 && rng.Intn(16) == 0:
			key = f.keys[rng.Intn(len(f.keys))]
		}
		t0 := time.Now()
		err := f.read(i, key)
		d := time.Since(t0)
		st.ops++
		if err != nil {
			st.errs++
		} else if f.crash == nil {
			st.lats = append(st.lats, d)
		}
		if f.tr != nil && f.s.HandoffEvery > 0 && st.ops%f.s.HandoffEvery == 0 {
			f.handoff(f.m[i].mc, rng, st)
		}
	}
}

// handoff moves mc to a random other leaf and times the resync.
func (f *fleet) handoff(mc *tree.MC, rng *stats.RNG, st *workerStats) {
	to := f.leaves[rng.Intn(len(f.leaves))]
	for len(f.leaves) > 1 && to == mc.Station() {
		to = f.leaves[rng.Intn(len(f.leaves))]
	}
	a, b := transport.NewMemPair()
	t0 := time.Now()
	done, err := mc.Handoff(to, a, b)
	if err != nil {
		st.errs++
		return
	}
	<-done
	st.handoffs = append(st.handoffs, time.Since(t0))
	if !mc.FinishHandoff(a) {
		st.cold++
	}
}

// teardown detaches every session so gauges return to their prior level
// (E24 and E25 run inside the bench process), closes every link so
// delayed and stalled frames die quietly, then lets read-timeout
// goroutines and stragglers drain before the goroutine count.
func (f *fleet) teardown(res *Result) {
	_ = parallel(len(f.m), f.s.Workers, func(i int) error {
		m := &f.m[i]
		switch {
		case m.mc != nil:
			m.mc.Session().Detach()
		case m.sess != nil:
			m.sess.Detach()
		}
		if m.cli != nil {
			m.cli.Disconnect()
		}
		if m.stall != nil {
			m.stall.Close()
		}
		return nil
	})
	if f.crash != nil {
		res.Crash = f.crash.close()
	}
	settle := time.Now().Add(3 * time.Second)
	for {
		res.GoroutinesAfter = runtime.NumGoroutine()
		if res.GoroutinesAfter <= res.GoroutinesBefore+2 || time.Now().After(settle) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// parallel runs fn over [0, n) split into contiguous slices across
// workers goroutines and returns the first error; a worker stops at its
// first error.
func parallel(n, workers int, fn func(i int) error) error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * n / workers; i < (w+1)*n/workers && errs[w] == nil; i++ {
				errs[w] = fn(i)
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// every calls fn each period until stop closes.
func every(stop <-chan struct{}, wg *sync.WaitGroup, period time.Duration, fn func()) {
	defer wg.Done()
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			fn()
		}
	}
}

func summarize(samples []time.Duration) Latency {
	slices.Sort(samples)
	l := Latency{Samples: len(samples)}
	if l.Samples > 0 {
		l.P50 = percentile(samples, 0.50)
		l.P90 = percentile(samples, 0.90)
		l.P99 = percentile(samples, 0.99)
		l.Max = samples[l.Samples-1]
	}
	return l
}

// percentile returns the exact nearest-rank percentile of the sorted
// samples: the smallest sample with at least q·n samples at or below it,
// index ceil(q·n)-1. The floor arithmetic it replaces overshot by one
// rank whenever q·n landed on an integer — p99 of exactly 100 samples
// reported the absolute maximum — which made short runs look worse than
// their distribution.
func percentile(sorted []time.Duration, q float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}
