// Command mobirep-client runs a mobile computer (MC) node: it connects to
// a mobirep-server over TCP, issues Poisson-distributed reads against a
// key, and reports the communication cost it measured — the out-of-pocket
// number the paper's whole analysis is about — next to the analytic
// prediction when one applies.
//
// Example, paired with the server example:
//
//	mobirep-client -server 127.0.0.1:7070 -mode SW9 -key x -read-rate 15 -duration 30s
//
// With -reconnect (the default) a supervisor redials dropped links under
// backoff and resynchronizes the warm cache; -heartbeat keeps probing the
// link so silent deaths are noticed; -stale lets offline reads serve the
// last known value, flagged, up to the given age.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"mobirep/internal/obs"
	"mobirep/internal/replica"
	"mobirep/internal/stats"
	"mobirep/internal/transport"
)

func main() {
	server := flag.String("server", "127.0.0.1:7070", "server address")
	modeName := flag.String("mode", "SW9", "allocation mode; must match the server")
	key := flag.String("key", "x", "key to read")
	readRate := flag.Float64("read-rate", 10, "Poisson read rate per second")
	duration := flag.Duration("duration", 30*time.Second, "how long to run")
	omega := flag.Float64("omega", 0.5, "control/data ratio used to price the measured traffic")
	seed := flag.Uint64("seed", 2, "random seed for the read process")
	chaosSpec := flag.String("chaos", "",
		"fault injection on the server link, e.g. seed=7,drop=0.05,dup=0.02,reorder=0.1,delay=0.2,maxdelay=50ms")
	reconnect := flag.String("reconnect", "warm",
		"link recovery: warm (redial + resync, keeps the cache), cold (redial + fresh start), off")
	heartbeat := flag.Duration("heartbeat", 5*time.Second,
		"keepalive probe interval; 0 disables heartbeats (requires -reconnect)")
	staleMax := flag.Duration("stale", 0,
		"serve offline reads from the cache up to this age, flagged stale; 0 fails them fast")
	debugAddr := flag.String("debug-addr", "",
		"HTTP listen address for /metrics, /healthz, /events and /debug/pprof (empty = disabled; use 127.0.0.1:0 for an ephemeral port)")
	coalesce := flag.Bool("coalesce", true,
		"batch outbound frames into writev calls on the server link (off forces one write per frame)")
	flag.Parse()

	mode, err := replica.ParseMode(*modeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	chaosCfg, err := transport.ParseChaosSpec(*chaosSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *reconnect != "warm" && *reconnect != "cold" && *reconnect != "off" {
		fmt.Fprintf(os.Stderr, "-reconnect %q: want warm, cold or off\n", *reconnect)
		os.Exit(2)
	}
	if *debugAddr != "" {
		bound, stop, err := obs.Serve(*debugAddr, obs.Default(), obs.DefaultTracer())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer stop()
		fmt.Printf("debug endpoints on http://%s/metrics\n", bound)
	}

	// The dialer rebuilds the full link stack — TCP, optional chaos wrap,
	// close callback into the supervisor — on every (re)connection. Each
	// redial derives a fresh chaos seed so fault schedules do not repeat.
	var sup atomic.Pointer[replica.Supervisor]
	var lastChaos atomic.Pointer[transport.Chaos]
	var dialN atomic.Uint64
	dial := func() (transport.Link, error) {
		tcp, err := transport.DialLink(*server, nil, func(error) {
			if s := sup.Load(); s != nil {
				s.Suspect()
			}
		})
		if err != nil {
			return nil, err
		}
		if *coalesce {
			tcp.SetCoalesce(true)
		}
		if !chaosCfg.Enabled() {
			return tcp, nil
		}
		cfg := chaosCfg
		cfg.Seed += dialN.Add(1)
		chaos, err := transport.NewChaos(tcp, cfg)
		if err != nil {
			tcp.Close()
			return nil, err
		}
		lastChaos.Store(chaos)
		return chaos, nil
	}

	link, err := dial()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dial:", err)
		os.Exit(1)
	}
	defer link.Close()
	if chaosCfg.Enabled() {
		fmt.Printf("chaos enabled on the server link: %s\n", *chaosSpec)
	}
	cli, err := replica.NewClient(link, mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// A silent link is declared suspect after this long; with -reconnect
	// the supervisor then redials, so keep it short enough to matter
	// within a demo run.
	cli.Timeout = 2 * time.Second
	if *staleMax > 0 {
		cli.AllowStale(*staleMax)
	}
	if *reconnect != "off" {
		s := replica.NewSupervisor(cli, dial, replica.SupervisorConfig{
			HeartbeatEvery: *heartbeat,
			Cold:           *reconnect == "cold",
			Seed:           int64(*seed),
		})
		sup.Store(s)
		s.Start()
		defer s.Stop()
	}

	fmt.Printf("mobirep-client: mode=%s reading %q at %.1f/s for %v (reconnect=%s)\n",
		mode, *key, *readRate, *duration, *reconnect)
	rng := stats.NewRNG(*seed)
	deadline := time.Now().Add(*duration)
	reads, stales, readErrs, streak := 0, 0, 0, 0
	for time.Now().Before(deadline) {
		time.Sleep(time.Duration(rng.Exp(*readRate) * float64(time.Second)))
		_, err := cli.Read(*key)
		switch {
		case err == nil:
			reads++
			streak = 0
		case errors.Is(err, replica.ErrStale):
			// Served from the warm cache while offline, explicitly flagged.
			reads++
			stales++
			streak = 0
		default:
			readErrs++
			streak++
			fmt.Fprintln(os.Stderr, "read:", err)
			if streak > 10 {
				fmt.Fprintln(os.Stderr, "giving up after 10 consecutive failures")
				goto report
			}
		}
	}
report:

	mc := cli.Meter().Snapshot()
	cs := cli.Cache().Stats()
	fmt.Printf("reads issued:        %d (stale %d, errors %d)\n", reads, stales, readErrs)
	fmt.Printf("cache:               hits=%d misses=%d installs=%d drops=%d updates=%d (hit rate %.1f%%)\n",
		cs.Hits, cs.Misses, cs.Installs, cs.Drops, cs.Updates, 100*cs.HitRate())
	fmt.Printf("MC-side traffic:     data=%d control=%d bytes=%d\n", mc.DataMsgs, mc.ControlMsgs, mc.Bytes)
	fmt.Printf("MC-side cost:        connection=%.0f message(omega=%.2f)=%.2f\n",
		mc.ConnectionCost(), *omega, mc.MessageCost(*omega))
	if s := sup.Load(); s != nil {
		st := s.Stats()
		fmt.Printf("recovery:            suspects=%d dials=%d reconnects=%d heartbeat-misses=%d busy-signals=%d\n",
			st.Suspects, st.DialAttempts, st.Reconnects, st.HeartbeatMisses, st.BusySignals)
	}
	if chaos := lastChaos.Load(); chaos != nil {
		st := chaos.Stats()
		fmt.Printf("chaos faults:        sent=%d delivered=%d dropped=%d duplicated=%d deferred=%d\n",
			st.Sent, st.Delivered, st.Dropped, st.Duplicated, st.Deferred)
	}
	fmt.Println("note: the server meters its own side; total cost is the sum of both meters")
}
