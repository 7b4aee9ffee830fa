package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"mobirep/internal/stats"
)

// The load generator is open loop: every actor (a probe MC, a writer, a
// fleet stream) owns a list of operations with due times drawn from the
// seed before the run starts, and runs each one when it is due whether or
// not the previous one was slow. Latencies are timed from the due time, so
// a stall is charged to every operation it delays.

type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opHandoff
)

// op is one generated operation. mc is the issuing mobile computer
// (probe or fleet index, by the stream it sits in), key the key index,
// and to the handoff target station.
type op struct {
	due  int64 // ns after the start of the run
	kind opKind
	mc   int32
	key  int32
	to   int32
}

// stream is one actor's operations in due order.
type stream []op

// poissonTimes returns arrival times of a Poisson process of the given
// rate over [0, dur).
func poissonTimes(rng *stats.RNG, rate float64, dur time.Duration) []int64 {
	if rate <= 0 {
		return nil
	}
	var out []int64
	t := 0.0
	end := float64(dur.Nanoseconds())
	for {
		t += rng.Exp(rate) * 1e9
		if t >= end {
			return out
		}
		out = append(out, int64(t))
	}
}

// zipf maps [0, 1) onto indices in [0, n), index i with probability
// proportional to 1/(i+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return zipf{cdf}
}

// at returns the index whose CDF interval holds u in [0, 1).
func (z zipf) at(u float64) int {
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// pacer runs streams open loop and measures how late it ran.
//
// Go's timers sleep with millisecond granularity once the process is
// idle (the netpoller waits in whole milliseconds), which would add up to
// a millisecond of false lateness to a 2 µs cache hit. Streams whose
// latencies are reported (probe MCs and writers) therefore each sleep on
// their own timerfd, which the netpoller wakes on the timer's expiry.
// Fleet streams, whose latencies are not reported, sleep coarsely and
// catch up in bursts. timerfd makes the benchmark Linux-only.
type pacer struct {
	streams []stream
	precise []bool
	started []atomic.Int64

	mu         sync.Mutex
	late       []int64 // ns, one per op of a precise stream
	backlogMax int64
	endBacklog int64
}

func newPacer(streams []stream, precise []bool) *pacer {
	return &pacer{streams: streams, precise: precise, started: make([]atomic.Int64, len(streams))}
}

func (p *pacer) ops() int {
	n := 0
	for _, s := range p.streams {
		n += len(s)
	}
	return n
}

// timerFD is a Linux timerfd read through the netpoller, so a sleeping
// stream parks its goroutine without holding a P.
type timerFD struct {
	f  *os.File
	fd uintptr
}

func newTimerFD() (*timerFD, error) {
	const clockMonotonic = 1
	fd, _, e := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if e != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", e)
	}
	return &timerFD{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

func (t *timerFD) sleep(d time.Duration) error {
	// struct itimerspec: it_interval then it_value, each {sec, nsec}.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, e := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); e != 0 {
		return fmt.Errorf("timerfd_settime: %w", e)
	}
	var b [8]byte
	_, err := t.f.Read(b[:])
	return err
}

func waitUntil(t0 time.Time, due time.Duration, tfd *timerFD) {
	d := due - time.Since(t0)
	if tfd == nil {
		if d > 0 {
			time.Sleep(d)
		}
		return
	}
	if d > 0 {
		if err := tfd.sleep(d); err != nil {
			time.Sleep(d)
		}
	}
}

// run starts one goroutine per stream, calls do for each op when it is
// due, and returns once every op has run. A sampler records the backlog:
// ops already due but not yet started, summed over streams.
//
// do gets the time the op's latency is measured from. It is the due time
// whenever the actor was still busy with its previous op at that moment,
// so a slow op is charged for every op it delays. When the actor was idle
// and only its own wake-up ran late, it is the moment the actor woke: on
// a virtual machine an idle vCPU can take milliseconds to be woken, and
// that belongs to the load generator, not to the system under test. Both
// kinds of lateness are reported as gen.late.
func (p *pacer) run(t0 time.Time, dur time.Duration, do func(stream int, o op, ref int64)) error {
	timers := make([]*timerFD, len(p.streams))
	for i := range timers {
		if p.precise[i] {
			t, err := newTimerFD()
			if err != nil {
				return err
			}
			defer t.f.Close()
			timers[i] = t
		}
	}
	var wg sync.WaitGroup
	lates := make([][]int64, len(p.streams))
	for i := range p.streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var lat []int64
			if p.precise[i] {
				lat = make([]int64, 0, len(p.streams[i]))
			}
			for _, o := range p.streams[i] {
				free := int64(time.Since(t0))
				waitUntil(t0, time.Duration(o.due), timers[i])
				start := int64(time.Since(t0))
				ref := o.due
				if free < o.due {
					ref = start
				}
				if p.precise[i] {
					lat = append(lat, start-o.due)
				}
				p.started[i].Add(1)
				do(i, o, ref)
			}
			lates[i] = lat
		}(i)
	}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			now := time.Since(t0)
			b := p.backlog(int64(now))
			p.mu.Lock()
			if b > p.backlogMax {
				p.backlogMax = b
			}
			if now <= dur {
				p.endBacklog = b
			}
			p.mu.Unlock()
		}
	}()
	wg.Wait()
	close(stop)
	<-sampled
	for _, l := range lates {
		p.late = append(p.late, l...)
	}
	return nil
}

func (p *pacer) backlog(now int64) int64 {
	var b int64
	for i, s := range p.streams {
		due := sort.Search(len(s), func(j int) bool { return s[j].due > now })
		if d := int64(due) - p.started[i].Load(); d > 0 {
			b += d
		}
	}
	return b
}

// growing reports whether the generator fell behind for good: ops still
// queued when the schedule ended, beyond what a brief stall leaves.
func (p *pacer) growing() bool {
	limit := int64(p.ops() / 100)
	if limit < 64 {
		limit = 64
	}
	return p.endBacklog > limit
}
