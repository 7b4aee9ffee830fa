package load

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/replica"
	"mobirep/internal/stats"
	"mobirep/internal/transport"
)

// The Crash phase is a kill-and-restart soak: the server's store lives on
// the deterministic power-cut filesystem, and the server process is
// "killed" — links severed, volatile state dropped, the store's unsynced
// journal cut at a seeded point — and restarted on a cadence while the
// fleet keeps reading and writing. Every restart replays the full
// production recovery: reopen (epoch bump), rebuild the server, redial
// every client, warm resync, and a cold reattach wherever the epoch fence
// fires. The phase counts what the durability contract forbids —
// acknowledged writes missing after restart, client-visible version
// rollbacks — so ci.sh can soak it for 30s and assert both stay zero
// under sync=always and sync=group.

const crashLog = "soak.log"

// CrashStats is the Crash phase's section of a Result. Its reads and
// writes are the Result's Ops, Errors, Writes and WriteErrors.
type CrashStats struct {
	Restarts int
	// Fences counts epoch fences observed during recovery (cold
	// reattaches forced by the bumped epoch).
	Fences int
	// LostAcked counts acknowledged writes missing after a restart.
	// The durability contract makes this zero under sync=always and
	// sync=group; sync=never may lose any unsynced suffix.
	LostAcked int
	// Rollbacks counts client reads that returned a version below one
	// the same client had already seen without an intervening fence.
	// Under sync=always and sync=group this is zero by contract: the
	// store never regresses, so no read can either. Under sync=never the
	// store itself may roll back, and a client that held no warm state
	// across the crash resyncs without a fence — its earlier
	// observations are not protected, only its held copies are.
	Rollbacks int
	// FinalEpoch is the store epoch after the last restart: initial open
	// plus one bump per restart.
	FinalEpoch uint64
}

// crashWorld is the swap-on-restart state. mu is held for read around
// every client and server operation and exclusively by the restarter, so
// a crash is a stop-the-world event — exactly what it is for a
// single-process server.
type crashWorld struct {
	mu    sync.RWMutex
	fs    *db.CrashFS
	store *db.Store
	stats CrashStats // written only under mu held exclusively

	ackedMu sync.Mutex
	acked   map[string]uint64 // committed version per key, updated post-ack

	rollbacks atomic.Int64
}

func newCrashWorld(s Scenario) (*crashWorld, *replica.Server, error) {
	c := &crashWorld{fs: db.NewCrashFS(), acked: make(map[string]uint64)}
	var err error
	if c.store, err = db.OpenWith(db.Options{Path: crashLog, Sync: s.Sync, FS: c.fs}); err != nil {
		return nil, nil, err
	}
	srv, err := replica.NewServerShards(c.store, s.Mode, s.Shards)
	if err != nil {
		return nil, nil, err
	}
	return c, srv, nil
}

// ack records an acknowledged write: from the moment Write returns the
// durability contract covers it.
func (c *crashWorld) ack(key string, version uint64) {
	c.ackedMu.Lock()
	c.acked[key] = version
	c.ackedMu.Unlock()
}

// restartLoop crashes and restarts the server every RestartEvery until
// the deadline.
func (f *fleet) restartLoop(deadline time.Time) error {
	rng := stats.NewRNG(f.s.Seed)
	for {
		time.Sleep(f.s.RestartEvery)
		if !time.Now().Before(deadline) {
			return nil
		}
		if err := f.restart(rng); err != nil {
			return err
		}
	}
}

func (f *fleet) restart(rng *stats.RNG) error {
	c := f.crash
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.stats.Restarts + 1

	// Power cut: keep a seeded prefix of the unsynced journal.
	cut := rng.Intn(c.fs.Ops() + 1)
	for i := range f.m {
		f.m[i].cli.Suspend()
	}
	c.fs.Kill(cut)
	store, err := db.OpenWith(db.Options{Path: crashLog, Sync: f.s.Sync, FS: c.fs})
	if err != nil {
		return fmt.Errorf("load: reopen after crash %d: %w", n, err)
	}
	srv, err := replica.NewServerShards(store, f.s.Mode, f.s.Shards)
	if err != nil {
		return fmt.Errorf("load: restart server %d: %w", n, err)
	}
	c.store, f.srv = store, srv
	c.stats.Restarts = n

	// Audit the durability contract, then re-anchor the acked map to the
	// surviving state so the next round measures from reality.
	c.ackedMu.Lock()
	for key, v := range c.acked {
		it, _ := store.Get(key)
		if it.Version < v {
			c.stats.LostAcked++
		}
		c.acked[key] = it.Version
	}
	c.ackedMu.Unlock()

	// Recovery: redial every client; the epoch fence forces the cold
	// reattach exactly as the supervisor would, and a fenced client's
	// earlier observations stop counting.
	for i := range f.m {
		m := &f.m[i]
		sl, cl := transport.NewMemPair()
		m.sess = srv.Attach(sl)
		if _, err := m.cli.ResumeResync(cl); err != nil {
			return fmt.Errorf("load: resync client %d: %w", i, err)
		}
		if m.cli.EpochFenced() {
			c.stats.Fences++
			m.cli.Reattach(cl)
			clear(m.seen)
		}
		if m.cli.Offline() {
			return fmt.Errorf("load: client %d offline after recovery", i)
		}
	}
	return nil
}

// close shuts the store down after teardown and returns the phase's
// section of the Result.
func (c *crashWorld) close() *CrashStats {
	st := c.stats
	st.Rollbacks = int(c.rollbacks.Load())
	st.FinalEpoch = c.store.Epoch()
	c.store.Close()
	return &st
}
