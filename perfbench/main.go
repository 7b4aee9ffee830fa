// Command perfbench is mobirep's benchmark: one program that builds the
// SC, its support-station trees and its MCs in one process, drives a
// named workload from a seed, checks that every output is correct, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as one JSON object on the last line of standard output.
//
//	go run . --workload read-mostly --seed 1 --seconds 10 --trace 0
//
// It is normally started through run.py, which builds it from the
// checkout first. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// workloads maps each networked workload to its shape. Rates are sized
// for a 2-CPU machine with headroom, so the open-loop generator keeps up
// and a stall shows as latency, not as a growing backlog.
var workloads = map[string]netConfig{
	// Read-intensive regime (theta ~ 0.1 per session): SW3 keeps copies at
	// the MCs, most reads hit the MC cache and the misses cross loopback.
	"read-mostly": {
		valueSize: 64, keys: 256,
		probeKeys: 8, probeRate: 2000, probeShare: 0.9,
		fleet: 4096, fleetKeys: 1, fleetRate: 30000, fleetShare: 0.95, zipfS: 0.8,
		writeRate: 200, writers: 2,
		headline: "read",
	},
	// Write-beside-read: durable group-commit writes to 8 hot keys that
	// many fleet MCs hold copies of (theta ~ 0.3 per session), so every
	// write pays fsync and then fans out.
	"write-fanout-durable": {
		durable: true, valueSize: 1024, keys: 8,
		probeKeys: 8, probeRate: 234, probeShare: 1,
		fleet: 1024, fleetKeys: 1, fleetRate: 30000, fleetShare: 1,
		writeRate: 100, writers: 4,
		headline: "propagation",
	},
	// Replica tree: reads cross relay hops and MCs keep moving between
	// the four leaves (theta ~ 0.5 per session). Not in BENCHMARK.json:
	// its value check fails on a relay resync defect (see README.md).
	"tree-handoff": {
		valueSize: 64, keys: 32,
		probeKeys: 4, probeRate: 1000, probeShare: 1,
		fleet: 64, fleetKeys: 4, fleetRate: 6400, fleetShare: 1,
		writeRate: 800, writers: 2,
		tree: true, handoffEvery: 25, probeHandoffEvery: 100,
		headline: "handoff",
	},
}

const simWorkload = "sim-replay"

// setupRounds is how many times an untraced run sets its system up;
// set-up time is reported as their median.
const setupRounds = 9

// setups times repeated set-ups. setup_s is the CPU time (user plus
// system, all threads) a set-up takes: on a shared VM its wall time moves
// with the host's load by half its value between runs, while the work it
// stands for, which a change could move into set-up, is the CPU time.
// The wall times are recorded beside it.
type setups struct{ cpu, wall []float64 }

type watch struct {
	t   time.Time
	cpu time.Duration
}

func (s *setups) start() watch { return watch{time.Now(), cpuTime()} }

func (s *setups) stop(w watch) {
	s.cpu = append(s.cpu, (cpuTime() - w.cpu).Seconds())
	s.wall = append(s.wall, time.Since(w.t).Seconds())
}

func (s *setups) report(r *result) {
	r.setupS = median(s.cpu)
	r.info["setup_cpu_s_each"] = s.cpu
	r.info["setup_wall_s_each"] = s.wall
	r.extra["setup_wall_s"] = median(s.wall)
}

func nproc() int { return runtime.NumCPU() }

type result struct {
	attempted, failed int
	setupS            float64
	headline          string
	lat               map[string][3]float64 // p50, p99, samples
	extra             map[string]float64
	layers            map[string]float64
	info              map[string]any
	tracer            *tracer
}

func newResult(attempted, failed int) *result {
	return &result{attempted: attempted, failed: failed, lat: map[string][3]float64{},
		extra: map[string]float64{}, layers: map[string]float64{}, info: map[string]any{}}
}

func (r *result) put(name string, ss []sample) {
	if len(ss) == 0 {
		return
	}
	p50, p99 := latency(ss)
	r.lat[name] = [3]float64{p50, p99, float64(len(ss))}
}

// e2e returns the end-to-end metrics of BENCHMARK.json.
func (r *result) e2e() map[string]float64 {
	return map[string]float64{
		"setup_s":              r.setupS,
		"cpu_us_per_op":        r.extra["cpu_us_per_op"],
		"conn_cost_per_op":     r.extra["conn_cost_per_op"],
		"msg_cost_w0.5_per_op": r.extra["msg_cost_per_op"],
		"heap_live_mib":        r.extra["heap_live_mib"],
	}
}

var e2eUnits = map[string]string{
	"setup_s": "s", "cpu_us_per_op": "us/op",
	"conn_cost_per_op": "conn/op", "msg_cost_w0.5_per_op": "msg/op", "heap_live_mib": "MiB",
}

// layerMetrics lists every per-layer metric of BENCHMARK.json, in the
// order the README's table uses. A workload that does not exercise a
// layer reports 0 for it.
var layerMetrics = []struct{ name, unit string }{
	{"gen.late_p99_us", "us"},
	{"gen.backlog_max", "ops"},
	{"replica.client.hit_ratio", "ratio"},
	{"replica.client.local_read_ns_p50", "ns"},
	{"replica.client.remote_read_us_p50", "us"},
	{"replica.client.remote_read_us_p99", "us"},
	{"replica.client.deliver_us_p99", "us"},
	{"replica.server.deliver_us_p99", "us"},
	{"replica.server.shard_sessions_spread", "ratio"},
	{"replica.server.fanout_per_write", "frames/write"},
	{"replica.server.fanout_send_us_per_write", "us/write"},
	{"replica.server.alloc_per_op", "1/op"},
	{"replica.server.dealloc_per_op", "1/op"},
	{"mobile.stale_update_ratio", "ratio"},
	{"mobile.revalidation_ratio", "ratio"},
	{"wire.frames_per_op.read_req", "frames/op"},
	{"wire.frames_per_op.read_resp", "frames/op"},
	{"wire.frames_per_op.write_prop", "frames/op"},
	{"wire.frames_per_op.delete_req", "frames/op"},
	{"wire.frames_per_op.batch", "frames/op"},
	{"wire.bytes_per_op", "bytes/op"},
	{"transport.send_us_p99", "us"},
	{"transport.frames_per_flush", "frames/flush"},
	{"transport.flushes_per_op", "flushes/op"},
	{"transport.queued_bytes_max", "bytes"},
	{"transport.wire_us_p50", "us"},
	{"db.records_per_fsync", "records/fsync"},
	{"db.fsync_us_p50", "us"},
	{"db.fsync_us_p99", "us"},
	{"db.commit_us_p99", "us"},
	{"db.bytes_written_per_user_byte", "ratio"},
	{"tree.hops_per_remote_read", "hops"},
	{"tree.relay_hit_ratio", "ratio"},
	{"tree.edge_deliver_us_p99", "us"},
	{"tree.resync_entries_per_handoff", "keys"},
	{"tree.invalidations_per_write", "1/write"},
	{"sim.replay_ns_per_op.SW1", "ns"},
	{"sim.replay_ns_per_op.SW3", "ns"},
	{"sim.replay_ns_per_op.SW9", "ns"},
	{"sim.replay_ns_per_op.T1_3", "ns"},
	{"sim.replay_ns_per_op.T2_3", "ns"},
	{"sim.replay_ns_per_op.ST1", "ns"},
	{"sim.replay_ns_per_op.ST2", "ns"},
	{"runtime.allocs_per_op", "allocs/op"},
	{"runtime.gc_pause_ms_total", "ms"},
	{"runtime.goroutines_max", "count"},
	{"runtime.heap_inuse_peak_mib", "MiB"},
	{"gen.self_us_per_op", "us/op"},
	{"replica.client.self_us_per_op", "us/op"},
	{"replica.server.self_us_per_op", "us/op"},
	{"transport.self_us_per_op", "us/op"},
	{"db.self_us_per_op", "us/op"},
	{"tree.self_us_per_op", "us/op"},
	{"sim.self_us_per_op", "us/op"},
	{"e2e.op_p50_us", "us"},
	{"e2e.op_p99_us", "us"},
	{"trace.op_p50_us", "us"},
	{"trace.op_p99_us", "us"},
	{"trace.overhead_cpu_pct", "%"},
	{"trace.overhead_op_p50_pct", "%"},
	{"trace.overhead_op_p99_pct", "%"},
}

// runtimeSampler tracks heap and goroutine peaks while a run measures.
type runtimeSampler struct {
	stopc, done chan struct{}
	ms0         runtime.MemStats
	cpu0        time.Duration
	inuse       uint64
	gMax        int
}

type runtimeStats struct {
	cpu           time.Duration // user+system CPU time of the process
	heapLive      float64       // MiB live after a full GC at the end of the run
	heapInuse     float64       // MiB: the largest HeapInuse sampled
	allocs        uint64
	gcPause       time.Duration
	goroutinesMax int
}

func startRuntime() *runtimeSampler {
	s := &runtimeSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&s.ms0)
	s.cpu0 = cpuTime()
	go func() {
		defer close(s.done)
		// HeapInuse is heap objects plus unused heap spans.
		ms := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(ms)
			s.inuse = max(s.inuse, ms[0].Value.Uint64()+ms[1].Value.Uint64())
			s.gMax = max(s.gMax, runtime.NumGoroutine())
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *runtimeSampler) stop() runtimeStats {
	close(s.stopc)
	<-s.done
	cpu := cpuTime() - s.cpu0
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	// The live heap right after a full collection is what the system
	// holds at the end of the run, free of where the last automatic GC
	// happened to fall.
	runtime.GC()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	return runtimeStats{
		cpu:           cpu,
		heapLive:      float64(live[0].Value.Uint64()) / (1 << 20),
		heapInuse:     float64(s.inuse) / (1 << 20),
		allocs:        ms1.Mallocs - s.ms0.Mallocs,
		gcPause:       time.Duration(ms1.PauseTotalNs - s.ms0.PauseTotalNs),
		goroutinesMax: s.gMax,
	}
}

// cpuTime is the process's user plus system CPU time. Time the host
// steals from the VM's vCPUs is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (r runtimeStats) layers(L map[string]float64, ops float64) {
	L["runtime.allocs_per_op"] = float64(r.allocs) / ops
	L["runtime.gc_pause_ms_total"] = r.gcPause.Seconds() * 1e3
	L["runtime.goroutines_max"] = float64(r.goroutinesMax)
	L["runtime.heap_inuse_peak_mib"] = r.heapInuse
}

func run(name string, seed uint64, dur time.Duration, traced bool, n int, scratch string) (*result, error) {
	if name == simWorkload {
		return runSim(seed, dur, traced, n)
	}
	return runNet(workloads[name], seed, dur, traced, n, scratch)
}

// provenance records where and how the figures were taken.
func provenance(name string, seed uint64, scratch string) map[string]any {
	return map[string]any{
		"workload":    name,
		"seed":        seed,
		"nproc":       nproc(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"cpu_model":   cpuModel(),
		"go_version":  runtime.Version(),
		"commit":      envOr("PERFBENCH_COMMIT", "unknown"),
		"log_fs_type": fsType(scratch),
		"network":     "all TCP traffic crossed the loopback interface (127.0.0.1); fleet MCs use in-process async links",
		"fsync":       "fsync figures are this machine's filesystem as the container sees it, not a storage device's",
	}
}

func envOr(k, def string) string {
	if v := os.Getenv(k); v != "" {
		return v
	}
	return def
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	name := flag.String("workload", "", "workload: read-mostly, write-fanout-durable, tree-handoff or sim-replay")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 10, "how long one run measures")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass")
	flag.Parse()
	if _, ok := workloads[*name]; !ok && *name != simWorkload {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	if runtime.GOMAXPROCS(0) > nproc() {
		runtime.GOMAXPROCS(nproc())
	}
	out := filepath.Join(".bench_out", *name)
	scratch := filepath.Join(out, fmt.Sprintf("scratch-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	prov := provenance(*name, *seed, scratch)
	dur := time.Duration(*seconds) * time.Second

	var rep report
	full := map[string]any{"provenance": prov}
	if *trace == 0 {
		res, err := run(*name, *seed, dur, false, setupRounds, scratch)
		if err != nil {
			return fail(err)
		}
		rep = report{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metric{}}
		for k, v := range res.e2e() {
			rep.Metrics[k] = metric{v, e2eUnits[k]}
		}
		full["result"] = describe(res)
		printDetail(prov, res)
	} else {
		// The untraced and traced halves run the same plan; the
		// difference between their end-to-end figures is what tracing
		// costs.
		half := dur / 2
		if half < time.Second {
			half = time.Second
		}
		plain, err := run(*name, *seed, half, false, 1, scratch)
		if err != nil {
			return fail(err)
		}
		traced, err := run(*name, *seed, half, true, 1, scratch)
		if err != nil {
			return fail(err)
		}
		L := traced.layers
		pl, tl := plain.lat[plain.headline], traced.lat[traced.headline]
		L["e2e.op_p50_us"], L["e2e.op_p99_us"] = pl[0], pl[1]
		L["trace.op_p50_us"], L["trace.op_p99_us"] = tl[0], tl[1]
		L["trace.overhead_op_p50_pct"] = 100 * ratio(tl[0]-pl[0], pl[0])
		L["trace.overhead_op_p99_pct"] = 100 * ratio(tl[1]-pl[1], pl[1])
		pc, tc := plain.extra["cpu_us_per_op"], traced.extra["cpu_us_per_op"]
		L["trace.overhead_cpu_pct"] = 100 * ratio(tc-pc, pc)
		rep = report{Correct: true, Attempted: plain.attempted + traced.attempted,
			Failed: plain.failed + traced.failed, Metrics: map[string]metric{}}
		for _, m := range layerMetrics {
			rep.Metrics[m.name] = metric{L[m.name], m.unit}
		}
		full["untraced"] = describe(plain)
		full["traced"] = describe(traced)
		full["layers"] = L
		if traced.tracer != nil {
			spans := filepath.Join(out, "spans.csv.gz")
			if err := traced.tracer.writeSpans(spans); err != nil {
				return fail(err)
			}
			full["spans_file"] = spans
		}
		fmt.Printf("provenance: %s\n", mustJSON(prov))
		fmt.Printf("tracing overhead: cpu/op %+.1f%%, op_p50 %+.1f%%, op_p99 %+.1f%%\n",
			L["trace.overhead_cpu_pct"], L["trace.overhead_op_p50_pct"], L["trace.overhead_op_p99_pct"])
	}
	file := filepath.Join(out, fmt.Sprintf("trace%d-seed%d.json", *trace, *seed))
	if err := os.WriteFile(file, []byte(mustJSON(full)+"\n"), 0o644); err != nil {
		return fail(err)
	}
	fmt.Println(mustJSON(rep))
	return 0
}

// describe lays a result out for the result file.
func describe(r *result) map[string]any {
	lat := map[string]any{}
	for k, v := range r.lat {
		lat[k] = map[string]float64{"p50_us": v[0], "p99_us": v[1], "samples": v[2]}
	}
	return map[string]any{"attempted": r.attempted, "failed": r.failed, "setup_s": r.setupS,
		"headline": r.headline, "latency": lat, "extra": r.extra, "layers": r.layers, "info": r.info}
}

// printDetail prints every end-to-end figure the workload exercises, by
// the names the README uses, ahead of the JSON line.
func printDetail(prov map[string]any, r *result) {
	fmt.Printf("provenance: %s\n", mustJSON(prov))
	fmt.Printf("%-24s %12.6f s   (CPU; wall %.6f s)\n", "setup_s", r.setupS, r.extra["setup_wall_s"])
	for _, k := range []string{"read", "write", "propagation", "handoff", "replay"} {
		if v, ok := r.lat[k]; ok {
			fmt.Printf("%-24s %12.2f us   (samples %d)\n", k+"_p50_us", v[0], int(v[2]))
			fmt.Printf("%-24s %12.2f us   (windowed, median of per-window p99s)\n", k+"_p99_us", v[1])
		}
	}
	for _, k := range []string{"conn_cost_per_op", "msg_cost_per_op", "error_rate", "heap_live_mib", "cpu_us_per_op", "replay_mops_s", "writes_per_s"} {
		if v, ok := r.extra[k]; ok {
			fmt.Printf("%-24s %12.6f\n", k, v)
		}
	}
	fmt.Printf("%-24s %12d (of %d attempted)\n", "failed", r.failed, r.attempted)
}

func fail(err error) int {
	if errors.Is(err, errInvalid) {
		fmt.Fprintln(os.Stderr, "perfbench: invalid run:", err)
	} else {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
	return 1
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}
