package main

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"mobirep/internal/db"
)

// The benchmark's inputs are a pure function of the seed: the same seed
// must give a byte-identical op schedule, a different seed a different
// one, for every networked workload.
func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for name, cfg := range workloads {
		a := makePlan(cfg, 2, 7, time.Second).encode()
		b := makePlan(cfg, 2, 7, time.Second).encode()
		c := makePlan(cfg, 2, 8, time.Second).encode()
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different schedules", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", name)
		}
	}
}

// Every stream is in due order, and every handoff leaves the station the
// MC is at.
func TestPlanShape(t *testing.T) {
	cfg := workloads["tree-handoff"]
	p := makePlan(cfg, 2, 3, 2*time.Second)
	at := map[[2]int32]int32{}
	for si, s := range p.streams {
		for i := 1; i < len(s); i++ {
			if s[i].due < s[i-1].due {
				t.Fatalf("stream %d: op %d due before op %d", si, i, i-1)
			}
		}
		for _, o := range s {
			if o.kind != opHandoff {
				continue
			}
			who := [2]int32{int32(si), o.mc}
			if si >= 2 {
				who[0] = -1 // fleet MCs are unique across fleet streams
			}
			if cur, ok := at[who]; ok && cur == o.to {
				t.Fatalf("stream %d: MC %d handed off to the station it is at", si, o.mc)
			}
			at[who] = o.to
		}
	}
}

func TestValueRoundTrip(t *testing.T) {
	v := encodeValue("key-0001", 42, 123456789, 64)
	if _, err := checkValue(itemOf("key-0001", v, 42), "key-0001", 64); err != nil {
		t.Fatal(err)
	}
	if _, err := checkValue(itemOf("key-0001", v, 41), "key-0001", 64); err == nil {
		t.Fatal("a value read back under another version passed the check")
	}
	if _, err := checkValue(itemOf("key-0002", v, 42), "key-0002", 64); err == nil {
		t.Fatal("a value read back under another key passed the check")
	}
}

func itemOf(key string, v []byte, version uint64) db.Item {
	return db.Item{Key: key, Value: v, Version: version}
}

// A system slower than the offered rate leaves a backlog that grows for
// the whole run; the pacer must flag such a run as invalid, and must not
// flag one that keeps up.
func TestPacerFlagsGrowingBacklog(t *testing.T) {
	var s stream
	for i := 0; i < 400; i++ {
		s = append(s, op{due: int64(i) * int64(time.Millisecond) / 2})
	}
	for _, c := range []struct {
		work time.Duration
		want bool
	}{{0, false}, {2 * time.Millisecond, true}} {
		p := newPacer([]stream{s}, []bool{false})
		err := p.run(time.Now(), 200*time.Millisecond, func(int, op, int64) { time.Sleep(c.work) })
		if err != nil {
			t.Fatal(err)
		}
		if got := p.growing(); got != c.want {
			t.Errorf("work %v per op: growing() = %v (backlog at end %d), want %v", c.work, got, p.endBacklog, c.want)
		}
	}
}

// encodeStreams serialises a schedule, so tests can compare two
// generated schedules byte for byte.
func encodeStreams(ss []stream) []byte {
	var out []byte
	for _, s := range ss {
		out = binary.AppendUvarint(out, uint64(len(s)))
		for _, o := range s {
			out = binary.AppendVarint(out, o.due)
			out = append(out, byte(o.kind))
			out = binary.AppendVarint(out, int64(o.mc))
			out = binary.AppendVarint(out, int64(o.key))
			out = binary.AppendVarint(out, int64(o.to))
		}
	}
	return out
}

// encode serialises a whole plan: home sets, then streams.
func (p plan) encode() []byte {
	var out []byte
	for _, hs := range [][][]int32{p.probeHome, p.fleetHome} {
		for _, h := range hs {
			out = binary.AppendUvarint(out, uint64(len(h)))
			for _, k := range h {
				out = binary.AppendVarint(out, int64(k))
			}
		}
	}
	return append(out, encodeStreams(p.streams)...)
}
