package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/obs"
	"mobirep/internal/replica"
	"mobirep/internal/stats"
	"mobirep/internal/transport"
	"mobirep/internal/tree"
	"mobirep/internal/wire"
)

// netConfig is one networked workload: an SC (or a replica tree rooted
// at one), a fleet of MCs on in-process async links, and nproc probe MCs
// on loopback TCP on which every reported read and propagation latency
// is taken.
type netConfig struct {
	durable   bool // db.OpenWith with group commit, else db.NewStore
	valueSize int
	keys      int

	probeKeys  int     // keys in each probe's home set
	probeRate  float64 // reads/s per probe
	probeShare float64 // share of probe reads on the home set
	fleet      int     // fleet MCs
	fleetKeys  int     // keys in each fleet MC's home set
	fleetRate  float64 // fleet reads/s, all MCs together
	fleetShare float64
	zipfS      float64 // skew of home-key choice; 0 spreads homes evenly
	writeRate  float64 // SC writes/s
	writers    int

	tree              bool
	handoffEvery      int // fleet MC reads between its handoffs
	probeHandoffEvery int

	// headline selects the end-to-end latency reported as op_p50_us and
	// op_p99_us: "read", "propagation" or "handoff".
	headline string
}

const (
	fleetStreams = 2 // goroutines issuing fleet ops, fixed so a seed gives the same plan everywhere
	readTimeout  = 2 * time.Second
	prewarmers   = 32
	omega        = 0.5 // message-model price of a control message
)

var mode = replica.SW(3)

// plan is a networked run's input: every MC's home key set, fixed by the
// workload, and every actor's op stream, drawn from the seed. The
// program under test sees only these.
type plan struct {
	probeHome [][]int32
	fleetHome [][]int32
	streams   []stream // probes, then writers, then fleet streams
}

var leaves = tree.Binary(7).Leaves()

func makePlan(cfg netConfig, probes int, seed uint64, dur time.Duration) plan {
	rng := stats.NewRNG(seed)
	// Home sets are part of the workload's definition, not of the seed:
	// MC i's j-th home key sits at a fixed point of a low-discrepancy
	// sequence through the key popularity distribution, so every seed
	// runs the same sharing structure and only the traffic varies.
	z := newZipf(cfg.keys, cfg.zipfS)
	home := func(n, i int) []int32 {
		out := make([]int32, 0, n)
		seen := map[int32]bool{}
		for j := 0; len(out) < n; j++ {
			k := int32((i*n + j) % cfg.keys)
			if cfg.zipfS > 0 {
				_, u := math.Modf((float64(i*n+j) + 0.5) * 0.6180339887498949)
				k = int32(z.at(u))
			}
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
		return out
	}
	var p plan
	for i := 0; i < probes; i++ {
		p.probeHome = append(p.probeHome, home(cfg.probeKeys, i))
	}
	for i := 0; i < cfg.fleet; i++ {
		p.fleetHome = append(p.fleetHome, home(cfg.fleetKeys, i))
	}
	pick := func(r *stats.RNG, h []int32, share float64) int32 {
		if r.Float64() < share {
			return h[r.Intn(len(h))]
		}
		return int32(r.Intn(cfg.keys))
	}
	// mover tracks each MC's station so handoffs always leave it.
	type mover struct{ reads, at int }
	hop := func(r *stats.RNG, m *mover, every int, s *stream, due int64, mc int32) {
		m.reads++
		if !cfg.tree || every == 0 || m.reads%every != 0 {
			return
		}
		to := leaves[r.Intn(len(leaves))]
		for to == m.at {
			to = leaves[r.Intn(len(leaves))]
		}
		m.at = to
		*s = append(*s, op{due: due + 1, kind: opHandoff, mc: mc, to: int32(to)})
	}
	for i := 0; i < probes; i++ {
		r := rng.Split()
		m := &mover{at: leaves[i%len(leaves)]}
		var s stream
		for _, t := range poissonTimes(r, cfg.probeRate, dur) {
			s = append(s, op{due: t, kind: opRead, mc: int32(i), key: pick(r, p.probeHome[i], cfg.probeShare)})
			hop(r, m, cfg.probeHandoffEvery, &s, t, int32(i))
		}
		p.streams = append(p.streams, s)
	}
	for w := 0; w < cfg.writers; w++ {
		r := rng.Split()
		var owned []int32
		for k := w; k < cfg.keys; k += cfg.writers {
			owned = append(owned, int32(k))
		}
		// Writers walk their keys in a fresh random order each pass, so
		// every key takes the same number of writes per run. Drawing each
		// key independently would leave the hottest keys' write counts,
		// and with them the fan-out cost, to chance.
		var s stream
		for i, t := range poissonTimes(r, cfg.writeRate/float64(cfg.writers), dur) {
			if i%len(owned) == 0 {
				r.Shuffle(len(owned), func(a, b int) { owned[a], owned[b] = owned[b], owned[a] })
			}
			s = append(s, op{due: t, kind: opWrite, key: owned[i%len(owned)]})
		}
		p.streams = append(p.streams, s)
	}
	movers := make([]mover, cfg.fleet)
	for i := range movers {
		movers[i].at = leaves[i%len(leaves)]
	}
	for d := 0; d < fleetStreams; d++ {
		r := rng.Split()
		var mine []int32
		for i := d; i < cfg.fleet; i += fleetStreams {
			mine = append(mine, int32(i))
		}
		var s stream
		for _, t := range poissonTimes(r, cfg.fleetRate/fleetStreams, dur) {
			mc := mine[r.Intn(len(mine))]
			s = append(s, op{due: t, kind: opRead, mc: mc, key: pick(r, p.fleetHome[mc], cfg.fleetShare)})
			hop(r, &movers[mc], cfg.handoffEvery, &s, t, mc)
		}
		p.streams = append(p.streams, s)
	}
	return p
}

// Values carry their own proof: version, the write's due time and the
// key, then padding derived from the version. A reader checks that the
// value is the one written for the version it was handed.
func encodeValue(key string, version uint64, due int64, size int) []byte {
	v := make([]byte, size)
	binary.BigEndian.PutUint64(v[0:], version)
	binary.BigEndian.PutUint64(v[8:], uint64(due))
	binary.BigEndian.PutUint16(v[16:], uint16(len(key)))
	n := 18 + copy(v[18:], key)
	fill := byte(version*131 + 7)
	for i := n; i < size; i++ {
		v[i] = fill
	}
	return v
}

// checkValue verifies it against its key and version and returns the
// due time of the write that produced it.
func checkValue(it db.Item, key string, size int) (int64, error) {
	v := it.Value
	if len(v) != size {
		return 0, fmt.Errorf("key %s v%d: value of %d bytes, want %d", key, it.Version, len(v), size)
	}
	if ver := binary.BigEndian.Uint64(v[0:]); ver != it.Version {
		return 0, fmt.Errorf("key %s: value encodes version %d, read returned %d", key, ver, it.Version)
	}
	kl := int(binary.BigEndian.Uint16(v[16:]))
	if 18+kl > size || string(v[18:18+kl]) != key || it.Key != key {
		return 0, fmt.Errorf("key %s v%d: value belongs to another key", key, it.Version)
	}
	fill := byte(it.Version*131 + 7)
	for _, b := range v[18+kl:] {
		if b != fill {
			return 0, fmt.Errorf("key %s v%d: corrupt padding", key, it.Version)
		}
	}
	return int64(binary.BigEndian.Uint64(v[8:])), nil
}

// mc is one mobile computer, probe or fleet, and what the benchmark
// records about it. Its reads and handoffs run on one goroutine; mu
// guards what the apply handler (a transport goroutine) records.
type mc struct {
	cli   *replica.Client
	tmc   *tree.MC          // tree workloads
	sess  *replica.Session  // flat workloads
	ends  [2]transport.Link // current MC and station ends
	tcp   [2]*transport.TCPLink
	ctx   *linkCtx
	home  []int32
	last  map[string]uint64 // highest version read, per key
	moved atomic.Bool       // inside a handoff: applies are resync, not propagation
	probe bool

	reads    []sample
	handoffs []sample
	remote   [][2]int64 // traced: remote read span id and duration
	local    []int64    // traced: local read durations

	mu    sync.Mutex // guards props, and tcp while a handoff swaps it
	props []sample
}

// netEnv is one assembled networked system.
type netEnv struct {
	cfg    netConfig
	t0     time.Time // every time below is in ns after t0
	off    int64     // when the measured run started
	tr     *tracer
	dir    string
	store  *db.Store
	srv    *replica.Server // where writes go: the SC or the tree root
	tree   *tree.Tree
	hub    *hub
	ln     *transport.Listener
	keys   []string
	probes []*mc
	fleet  []*mc

	mu       sync.Mutex
	fail     error // first correctness violation
	failed   atomic.Int64
	detached replica.MeterSnapshot   // meters of sessions left behind by handoffs
	tcpGone  transport.CoalesceStats // flush counters of probe links closed by handoffs
	qMax     atomic.Int64

	acked  []uint64 // per key: last acknowledged version
	writes []sample
	writeN atomic.Int64
	cold   atomic.Int64
	epoch  uint64
}

func (e *netEnv) violate(err error) {
	e.mu.Lock()
	if e.fail == nil {
		e.fail = err
	}
	e.mu.Unlock()
}

func (e *netEnv) link(a, b transport.Link, ra, rb role) (transport.Link, transport.Link, *linkCtx) {
	if e.tr == nil {
		return a, b, nil
	}
	ta, tb := wrapPair(e.tr, a, b, ra, rb)
	return ta, tb, ta.ctx
}

// dial opens one loopback TCP connection with coalescing on both ends.
// The station end is returned unstarted.
func (e *netEnv) dial() (*transport.TCPLink, *transport.TCPLink, error) {
	cl, err := transport.DialLink(e.ln.Addr(), nil, nil)
	if err != nil {
		return nil, nil, err
	}
	cl.SetCoalesce(true)
	st, err := e.ln.Accept()
	if err != nil {
		cl.Close()
		return nil, nil, err
	}
	st.SetCoalesce(true)
	return cl, st, nil
}

// setup builds the system and prewarms every MC's copies.
func setupNet(cfg netConfig, p plan, dir string, traced bool) (*netEnv, error) {
	e := &netEnv{cfg: cfg, t0: time.Now(), dir: dir, hub: newHub(nproc())}
	if traced {
		e.tr = newTracer(e.t0)
	}
	var err error
	if cfg.durable {
		opts := db.Options{Path: filepath.Join(dir, "sc.log"), Sync: db.SyncGroup}
		if traced {
			opts.FS = tracedFS{FS: db.OSFS(), t: e.tr}
		}
		e.store, err = db.OpenWith(opts)
	} else {
		e.store = db.NewStore()
	}
	if err != nil {
		return nil, err
	}
	if cfg.tree {
		place, err := tree.ParsePolicy("SW3")
		if err != nil {
			return nil, err
		}
		connect := func(child, parent int) (transport.Link, transport.Link, error) {
			a, b := e.hub.pair()
			up, down, _ := e.link(a, b, roleEdgeUp, roleEdgeDown)
			return up, down, nil
		}
		if e.tree, err = tree.Build(tree.Binary(7), e.store, mode, 0, place, connect); err != nil {
			return nil, err
		}
		e.srv = e.tree.Stations[0].Server()
	} else if e.srv, err = replica.NewServerShards(e.store, mode, 0); err != nil {
		return nil, err
	}
	if e.ln, err = transport.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	// Version 1 of every key, written concurrently so a durable store
	// commits the lot in a few group fsyncs.
	e.keys = make([]string, cfg.keys)
	e.acked = make([]uint64, cfg.keys)
	for i := range e.keys {
		e.keys[i] = fmt.Sprintf("key-%04d", i)
	}
	errs := make([]error, cfg.keys)
	var wg sync.WaitGroup
	for i := range e.keys {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			it, err := e.srv.Write(e.keys[i], encodeValue(e.keys[i], 1, 0, cfg.valueSize))
			if err == nil && it.Version != 1 {
				err = fmt.Errorf("fresh store: %s got version %d", e.keys[i], it.Version)
			}
			errs[i] = err
			e.acked[i] = 1
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for i, h := range p.probeHome {
		m := &mc{home: h, last: map[string]uint64{}}
		if err := e.attach(m, i, true); err != nil {
			return nil, err
		}
		e.probes = append(e.probes, m)
	}
	for i, h := range p.fleetHome {
		m := &mc{home: h, last: map[string]uint64{}}
		if err := e.attach(m, i, false); err != nil {
			return nil, err
		}
		e.fleet = append(e.fleet, m)
	}
	// Prewarm: three reads of each home key give SW3 a read majority, so
	// copies are in place before timing starts. Enough MCs prewarm at
	// once to keep the CPUs busy; an idle VM pays the host's wake-up
	// latency on every round trip, which would make set-up time noise.
	all := append(append([]*mc(nil), e.probes...), e.fleet...)
	for w := 0; w < prewarmers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(all); i += prewarmers {
				for _, k := range all[i].home {
					for r := 0; r < 3; r++ {
						e.read(all[i], e.keys[k])
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if e.fail != nil {
		return nil, e.fail
	}
	if n := e.failed.Load(); n > 0 {
		return nil, fmt.Errorf("%d prewarm reads failed", n)
	}
	return e, nil
}

// attach connects one MC at its first station: probes over TCP, the
// fleet over async links.
func (e *netEnv) attach(m *mc, i int, probe bool) error {
	a, b, tcp, err := e.ends(probe)
	if err != nil {
		return err
	}
	mcEnd, stEnd, ctx := e.link(a, b, roleMC, roleStation)
	m.ends, m.tcp, m.ctx = [2]transport.Link{mcEnd, stEnd}, tcp, ctx
	if e.tree != nil {
		if m.tmc, err = e.tree.AttachMC(leaves[i%len(leaves)], mcEnd, stEnd); err != nil {
			return err
		}
		m.cli = m.tmc.Client
	} else {
		if m.cli, err = replica.NewClient(mcEnd, mode); err != nil {
			return err
		}
		m.sess = e.srv.Attach(stEnd)
	}
	if tcp[1] != nil {
		tcp[1].Start(nil)
	}
	m.cli.Timeout = readTimeout
	m.probe = probe
	m.cli.SetApplyHandler(func(it db.Item) { e.applied(m, it) })
	return nil
}

func (e *netEnv) ends(probe bool) (transport.Link, transport.Link, [2]*transport.TCPLink, error) {
	if !probe {
		a, b := e.hub.pair()
		return a, b, [2]*transport.TCPLink{}, nil
	}
	cl, st, err := e.dial()
	if err != nil {
		return nil, nil, [2]*transport.TCPLink{}, err
	}
	return cl, st, [2]*transport.TCPLink{cl, st}, nil
}

// applied records a write propagation reaching a probe: the staleness a
// user sees, from the write's due time.
func (e *netEnv) applied(m *mc, it db.Item) {
	due, err := checkValue(it, it.Key, e.cfg.valueSize)
	if err != nil {
		e.violate(fmt.Errorf("propagated value (probe %v, in handoff %v, %d bytes): %w", m.probe, m.moved.Load(), len(it.Value), err))
		return
	}
	if !m.probe || m.moved.Load() || due == 0 {
		return
	}
	now := int64(time.Since(e.t0))
	m.mu.Lock()
	m.props = append(m.props, sample{due, now - due})
	m.mu.Unlock()
}

// read performs one checked read and returns when it completed.
func (e *netEnv) read(m *mc, key string) (db.Item, bool) {
	it, err := m.cli.Read(key)
	if err != nil {
		e.failed.Add(1)
		return it, false
	}
	if _, err := checkValue(it, key, e.cfg.valueSize); err != nil {
		e.violate(err)
		return it, false
	}
	if it.Version < m.last[key] {
		e.violate(fmt.Errorf("key %s: read version %d after %d (not monotone)", key, it.Version, m.last[key]))
		return it, false
	}
	m.last[key] = it.Version
	return it, true
}

// do runs one op for its actor. ref is when the op's latency counts
// from (see pacer.run), in ns after the start of the measured run.
func (e *netEnv) do(actor int, o op, ref int64) {
	ref += e.off
	switch {
	case o.kind == opWrite:
		e.write(o, ref)
	case actor < len(e.probes):
		e.mcOp(e.probes[o.mc], o, ref, true)
	default:
		e.mcOp(e.fleet[o.mc], o, ref, false)
	}
}

func (e *netEnv) write(o op, due int64) {
	key := e.keys[o.key]
	ver := e.acked[o.key] + 1 // each key has one writer, so the version is known
	val := encodeValue(key, ver, due, e.cfg.valueSize)
	var id uint64
	start := int64(time.Since(e.t0))
	if e.tr != nil {
		id = e.tr.beginWrite(key, ver, start)
	}
	it, err := e.srv.Write(key, val)
	end := int64(time.Since(e.t0))
	if e.tr != nil {
		e.tr.record(span{id: id, op: id, layer: lServer, write: true, start: start, end: end})
	}
	if err != nil {
		e.failed.Add(1)
		return
	}
	if it.Version != ver {
		e.violate(fmt.Errorf("write %s: committed version %d, want %d", key, it.Version, ver))
		return
	}
	e.acked[o.key] = ver
	e.writeN.Add(1)
	e.mu.Lock()
	e.writes = append(e.writes, sample{due, end - due})
	e.mu.Unlock()
}

func (e *netEnv) mcOp(m *mc, o op, due int64, probe bool) {
	if o.kind == opHandoff {
		e.handoff(m, int(o.to), probe)
		return
	}
	key := e.keys[o.key]
	var id uint64
	var conns int
	start := int64(time.Since(e.t0))
	if e.tr != nil {
		id = e.tr.newID()
		m.ctx.cur.Store(id)
		conns = m.cli.Meter().Snapshot().Connections
	}
	_, ok := e.read(m, key)
	end := int64(time.Since(e.t0))
	if e.tr != nil {
		m.ctx.cur.Store(0)
		e.tr.record(span{id: id, op: id, layer: lClient, start: start, end: end})
	}
	if e.tr != nil && probe {
		if m.cli.Meter().Snapshot().Connections != conns {
			m.remote = append(m.remote, [2]int64{int64(id), end - start})
		} else {
			m.local = append(m.local, end-start)
		}
	}
	if ok && probe {
		m.reads = append(m.reads, sample{due, end - due})
	}
}

// handoff moves m to station `to` over fresh link ends and waits for the
// warm resync. A probe closes its old TCP connection first, so it never
// holds more than one.
func (e *netEnv) handoff(m *mc, to int, probe bool) {
	if probe {
		e.mu.Lock()
		for _, l := range m.tcp {
			l.Close()
			st := l.Stats()
			e.tcpGone.Flushes += st.Flushes
			e.tcpGone.Frames += st.Frames
		}
		e.mu.Unlock()
	}
	a, b, tcp, err := e.ends(probe)
	if err != nil {
		e.failed.Add(1)
		return
	}
	mcEnd, stEnd, ctx := e.link(a, b, roleMC, roleStation)
	old := m.tmc.Session().Meter().Snapshot()
	m.moved.Store(true)
	defer m.moved.Store(false)
	var id uint64
	start := int64(time.Since(e.t0))
	if ctx != nil {
		id = e.tr.newID()
		ctx.cur.Store(id)
	}
	done, err := m.tmc.Handoff(to, mcEnd, stEnd)
	if tcp[1] != nil {
		tcp[1].Start(nil)
	}
	if !probe {
		m.ends[0].Close()
		m.ends[1].Close()
	}
	m.mu.Lock()
	m.ends, m.tcp, m.ctx = [2]transport.Link{mcEnd, stEnd}, tcp, ctx
	m.mu.Unlock()
	e.mu.Lock()
	e.detached = e.detached.Add(old)
	e.mu.Unlock()
	if err != nil {
		e.failed.Add(1)
		return
	}
	select {
	case <-done:
	case <-time.After(readTimeout):
		e.failed.Add(1)
		return
	}
	end := int64(time.Since(e.t0))
	if ctx != nil {
		ctx.cur.Store(0)
		e.tr.record(span{id: id, op: id, layer: lTree, start: start, end: end})
	}
	if !m.tmc.FinishHandoff(mcEnd) {
		e.cold.Add(1)
		e.failed.Add(1)
		return
	}
	m.handoffs = append(m.handoffs, sample{start, end - start})
}

// meters sums every MC- and station-side traffic meter.
func (e *netEnv) meters() replica.MeterSnapshot {
	e.mu.Lock()
	sum := e.detached
	e.mu.Unlock()
	for _, group := range [][]*mc{e.probes, e.fleet} {
		for _, m := range group {
			sum = sum.Add(m.cli.Meter().Snapshot())
			if m.tmc != nil {
				sum = sum.Add(m.tmc.Session().Meter().Snapshot())
			} else {
				sum = sum.Add(m.sess.Meter().Snapshot())
			}
		}
	}
	if e.tree != nil {
		for i, st := range e.tree.Stations {
			if i > 0 {
				sum = sum.Add(st.Client().Meter().Snapshot())
				sum = sum.Add(e.tree.ParentSession(i).Meter().Snapshot())
			}
		}
	}
	return sum
}

// tcpStats sums the coalescing counters of every probe link, closed or
// open.
func (e *netEnv) tcpStats() transport.CoalesceStats {
	e.mu.Lock()
	sum := e.tcpGone
	e.mu.Unlock()
	for _, m := range e.probes {
		for _, l := range m.tcp {
			st := l.Stats()
			sum.Flushes += st.Flushes
			sum.Frames += st.Frames
		}
	}
	return sum
}

func (e *netEnv) cacheStats() (hits, misses, updates, stale, installs, reval int) {
	for _, group := range [][]*mc{e.probes, e.fleet} {
		for _, m := range group {
			s := m.cli.Cache().Stats()
			hits += s.Hits
			misses += s.Misses
			updates += s.Updates
			stale += s.StaleUpdates
			installs += s.Installs
			reval += s.Revalidations
		}
	}
	return
}

// close tears the system down: links, listener, hub and store. A
// durable store is then reopened on the same log: every acknowledged
// version must come back, under the next epoch.
func (e *netEnv) close(check bool) error {
	for _, m := range e.probes {
		m.tcp[0].Close()
		m.tcp[1].Close()
	}
	e.ln.Close()
	for _, group := range [][]*mc{e.probes, e.fleet} {
		for _, m := range group {
			m.ends[0].Close()
			m.ends[1].Close()
		}
	}
	e.hub.stop()
	if !e.cfg.durable {
		return nil
	}
	epoch := e.store.Epoch()
	if err := e.store.Close(); err != nil {
		return fmt.Errorf("closing store: %w", err)
	}
	if !check {
		return nil
	}
	path := filepath.Join(e.dir, "sc.log")
	st, err := db.OpenWith(db.Options{Path: path, Sync: db.SyncGroup})
	if err != nil {
		return fmt.Errorf("reopening log: %w", err)
	}
	defer st.Close()
	if st.Epoch() != epoch+1 {
		return fmt.Errorf("reopened store epoch %d, want %d", st.Epoch(), epoch+1)
	}
	for i, k := range e.keys {
		it, ok := st.Get(k)
		if !ok || it.Version != e.acked[i] {
			return fmt.Errorf("recovery lost %s: have v%d, acknowledged v%d", k, it.Version, e.acked[i])
		}
		if _, err := checkValue(it, k, e.cfg.valueSize); err != nil {
			return fmt.Errorf("recovered value: %w", err)
		}
	}
	e.epoch = st.Epoch()
	return nil
}

// sampleTCP records the deepest coalescing queue seen on a probe link.
func (e *netEnv) sampleTCP(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		for _, m := range e.probes {
			m.mu.Lock()
			for _, l := range m.tcp {
				e.qMax.Store(max(e.qMax.Load(), int64(l.QueuedBytes())))
			}
			m.mu.Unlock()
		}
	}
}

var errInvalid = errors.New("generator backlog grew: the offered load outran the system, so the run is invalid")

// runNet sets the workload up (several times, for a steady set-up
// figure), runs its plan open loop for dur and measures it.
func runNet(cfg netConfig, seed uint64, dur time.Duration, traced bool, n int, scratch string) (*result, error) {
	probes := nproc()
	p := makePlan(cfg, probes, seed, dur)
	var su setups
	var e *netEnv
	for i := 0; i < n; i++ {
		dir, err := os.MkdirTemp(scratch, "setup-")
		if err != nil {
			return nil, err
		}
		w := su.start()
		env, err := setupNet(cfg, p, dir, traced)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		su.stop(w)
		if i < n-1 {
			if err := env.close(false); err != nil {
				return nil, err
			}
			continue
		}
		e = env
	}

	before := e.meters()
	tcp0 := e.tcpStats()
	h0, m0, u0, s0, i0, r0 := e.cacheStats()
	obs0 := obs.Default().Snapshot()
	rt := startRuntime()
	var stopQ chan struct{}
	var qDone chan struct{}
	if traced {
		stopQ, qDone = make(chan struct{}), make(chan struct{})
		go e.sampleTCP(stopQ, qDone)
	}

	// Latency samples get their room up front, so the heap holds the same
	// bookkeeping on every run.
	precise := make([]bool, len(p.streams))
	for i := 0; i < probes+cfg.writers; i++ {
		precise[i] = true
		if i < probes {
			e.probes[i].reads = make([]sample, 0, len(p.streams[i]))
			e.probes[i].props = make([]sample, 0, len(p.streams[i]))
		} else {
			e.writes = slices.Grow(e.writes, len(p.streams[i]))
		}
	}
	pc := newPacer(p.streams, precise)
	e.off = int64(time.Since(e.t0))
	if err := pc.run(e.t0.Add(time.Duration(e.off)), dur, e.do); err != nil {
		return nil, err
	}
	elapsed := time.Since(e.t0) - time.Duration(e.off)
	if traced {
		close(stopQ)
		<-qDone
	}
	rts := rt.stop()
	after := e.meters()
	h1, m1, u1, s1, i1, r1 := e.cacheStats()
	obs1 := obs.Default().Snapshot()
	tcp1 := e.tcpStats()
	tcpStats := transport.CoalesceStats{Flushes: tcp1.Flushes - tcp0.Flushes, Frames: tcp1.Frames - tcp0.Frames}
	shardSessions := e.srv.ShardSessions()
	if e.tree != nil {
		shardSessions = nil
		for _, l := range leaves {
			shardSessions = append(shardSessions, e.tree.Stations[l].Server().ShardSessions()...)
		}
	}
	if err := e.close(true); err != nil {
		return nil, err
	}
	if e.fail != nil {
		return nil, e.fail
	}
	if n := e.cold.Load(); n > 0 {
		return nil, fmt.Errorf("%d cold handoffs (the root never restarts here, so every handoff must resync warm)", n)
	}
	if pc.growing() {
		return nil, errInvalid
	}

	res := newResult(pc.ops(), int(e.failed.Load()))
	var reads, props, handoffs []sample
	for _, m := range e.probes {
		reads = append(reads, m.reads...)
		props = append(props, m.props...)
	}
	for _, m := range e.fleet {
		handoffs = append(handoffs, m.handoffs...)
	}
	ops := float64(res.attempted)
	cost := after.Add(negate(before))
	su.report(res)
	res.put("read", reads)
	res.put("write", e.writes)
	res.put("propagation", props)
	res.put("handoff", handoffs)
	res.headline = cfg.headline
	res.extra["conn_cost_per_op"] = cost.ConnectionCost() / ops
	res.extra["msg_cost_per_op"] = cost.MessageCost(omega) / ops
	res.extra["heap_live_mib"] = rts.heapLive
	res.extra["cpu_us_per_op"] = rts.cpu.Seconds() * 1e6 / ops
	res.extra["error_rate"] = float64(res.failed) / ops
	res.extra["writes_per_s"] = float64(e.writeN.Load()) / elapsed.Seconds()
	res.info["store_epoch_after_reopen"] = e.epoch

	lateUs := make([]int64, len(pc.late))
	copy(lateUs, pc.late)
	L := res.layers
	L["gen.late_p99_us"] = float64(pct(lateUs, 0.99)) / 1e3
	L["gen.backlog_max"] = float64(pc.backlogMax)
	L["replica.client.hit_ratio"] = ratio(float64(h1-h0), float64(h1-h0+m1-m0))
	L["replica.server.shard_sessions_spread"] = spread(shardSessions)
	L["replica.server.alloc_per_op"] = float64(obs1.Counter("mobirep_replica_allocations_total")-obs0.Counter("mobirep_replica_allocations_total")) / ops
	L["replica.server.dealloc_per_op"] = float64(obs1.Counter("mobirep_replica_deallocations_total")-obs0.Counter("mobirep_replica_deallocations_total")) / ops
	L["mobile.stale_update_ratio"] = ratio(float64(s1-s0), float64(u1-u0+s1-s0))
	L["mobile.revalidation_ratio"] = ratio(float64(r1-r0), float64(r1-r0+i1-i0))
	L["transport.frames_per_flush"] = ratio(float64(tcpStats.Frames), float64(tcpStats.Flushes))
	L["transport.flushes_per_op"] = float64(tcpStats.Flushes) / ops
	L["transport.queued_bytes_max"] = float64(e.qMax.Load())
	rts.layers(L, ops)
	if e.tree != nil {
		fl := float64(obs1.Counter(`mobirep_tree_fetches_total{result="local"}`) - obs0.Counter(`mobirep_tree_fetches_total{result="local"}`))
		fp := float64(obs1.Counter(`mobirep_tree_fetches_total{result="parent"}`) - obs0.Counter(`mobirep_tree_fetches_total{result="parent"}`))
		L["tree.relay_hit_ratio"] = ratio(fl, fl+fp)
		L["tree.invalidations_per_write"] = ratio(float64(obs1.Counter("mobirep_tree_invalidations_total")-obs0.Counter("mobirep_tree_invalidations_total")), float64(e.writeN.Load()))
	}
	if e.tr != nil {
		e.traceLayers(L, ops)
		res.tracer = e.tr
	}
	var late int64
	for _, l := range pc.late {
		late += l
	}
	L["gen.self_us_per_op"] = ratio(float64(late)/1e3, float64(len(pc.late)))
	return res, nil
}

func negate(s replica.MeterSnapshot) replica.MeterSnapshot {
	return replica.MeterSnapshot{DataMsgs: -s.DataMsgs, ControlMsgs: -s.ControlMsgs, Connections: -s.Connections, Bytes: -s.Bytes}
}

// spread is (max-min)/mean of per-shard session counts.
func spread(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi, sum := xs[0], xs[0], 0
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
		sum += x
	}
	return ratio(float64(hi-lo), float64(sum)/float64(len(xs)))
}

// traceLayers derives the per-layer figures that need the wrappers.
func (e *netEnv) traceLayers(L map[string]float64, ops float64) {
	t := e.tr
	us := func(xs []int64, q float64) float64 { return float64(pct(xs, q)) / 1e3 }
	var local, remote []int64
	serve := map[uint64]int64{} // ReadReq handler time by the read span that caused it
	for _, s := range t.spans {
		if s.layer == lServer && !s.write && s.parent != 0 {
			serve[s.parent] = s.end - s.start
		}
	}
	var wireT []int64
	for _, m := range e.probes {
		local = append(local, m.local...)
		for _, r := range m.remote {
			remote = append(remote, r[1])
			if sv, ok := serve[uint64(r[0])]; ok {
				wireT = append(wireT, r[1]-sv)
			}
		}
	}
	writes := float64(e.writeN.Load())
	L["replica.client.local_read_ns_p50"] = float64(pct(local, 0.5))
	L["replica.client.remote_read_us_p50"] = us(remote, 0.5)
	L["replica.client.remote_read_us_p99"] = us(remote, 0.99)
	L["replica.client.deliver_us_p99"] = us(t.clientDeliv, 0.99)
	L["replica.server.deliver_us_p99"] = us(t.serverReq, 0.99)
	L["replica.server.fanout_per_write"] = ratio(float64(t.frames[wire.KindWriteProp].Load()), writes)
	L["replica.server.fanout_send_us_per_write"] = ratio(float64(t.sendNs[wire.KindWriteProp].Load())/1e3, writes)
	for name, k := range map[string]wire.Kind{"read_req": wire.KindReadReq, "read_resp": wire.KindReadResp, "write_prop": wire.KindWriteProp, "delete_req": wire.KindDeleteReq} {
		L["wire.frames_per_op."+name] = float64(t.frames[k].Load()) / ops
	}
	var batch int64
	for k := wire.KindMultiReadReq; k <= wire.KindResyncResp; k++ {
		batch += t.frames[k].Load()
	}
	L["wire.frames_per_op.batch"] = float64(batch) / ops
	L["wire.bytes_per_op"] = float64(t.bytes.Load()) / ops
	L["transport.send_us_p99"] = us(t.sends, 0.99)
	L["transport.wire_us_p50"] = us(wireT, 0.5)
	L["db.commit_us_p99"] = us(t.commits, 0.99)
	if e.cfg.durable {
		L["db.records_per_fsync"] = ratio(writes, float64(len(t.fsyncs)))
		L["db.fsync_us_p50"] = us(append([]int64(nil), t.fsyncs...), 0.5)
		L["db.fsync_us_p99"] = us(t.fsyncs, 0.99)
		L["db.bytes_written_per_user_byte"] = ratio(float64(t.fsWrites.Load()), writes*float64(e.cfg.valueSize))
	}
	if e.tree != nil {
		L["tree.hops_per_remote_read"] = ratio(float64(t.mcReqs.Load()+t.edgeReqs.Load()), float64(t.mcReqs.Load()))
		L["tree.edge_deliver_us_p99"] = us(t.edgeDeliv, 0.99)
		L["tree.resync_entries_per_handoff"] = ratio(float64(t.resyncN.Load()), float64(t.resyncs.Load()))
	}
	self := t.selfTime()
	for i, name := range layerNames {
		L[name+".self_us_per_op"] = float64(self[i]) / 1e3 / ops
	}
}
