package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"mobirep/internal/load"
)

func TestRunSmokeText(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-sessions", "300", "-shards", "2", "-duration", "150ms"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"300 sessions over 2 shards", "sessions/sec", "p99="} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunJSONAndFloor(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-sessions", "200", "-duration", "100ms", "-json"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	var res map[string]any
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("non-JSON output: %v\n%s", err, out.String())
	}
	if res["Sessions"] != float64(200) {
		t.Errorf("JSON Sessions = %v, want 200", res["Sessions"])
	}
	// An impossible floor must fail the run.
	out.Reset()
	errb.Reset()
	code = run([]string{"-sessions", "100", "-duration", "50ms", "-floor-sessions-per-sec", "1e12"}, &out, &errb)
	if code == 0 {
		t.Error("impossible sessions/sec floor did not fail the run")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-mode", "bogus"}, &out, &errb); code != 2 {
		t.Errorf("bad mode: exit %d, want 2", code)
	}
	if code := run([]string{"-chaos", "drop=oops"}, &out, &errb); code != 2 {
		t.Errorf("bad chaos spec: exit %d, want 2", code)
	}
	if code := run([]string{"-sessions", "0", "-chaos", ""}, &out, &errb); code != 1 {
		t.Errorf("zero sessions: exit %d, want 1", code)
	}
}

// TestRunOverloadAndTreeScenarios drives the two phase switches end to
// end on small fleets: both pass their own gates, report their phase's
// section in the JSON, and an impossible -ceil-p99 fails the run.
func TestRunOverloadAndTreeScenarios(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		section string
	}{
		{"overload", []string{"-overload", "-capacity", "150", "-factor", "2", "-shards", "2"}, "Admission"},
		{"tree", []string{"-tree", "-stations", "7", "-sessions", "200", "-mode", "ST2", "-handoff-every", "25"}, "Tree"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			args := append([]string{"-duration", "100ms", "-json", "-max-goroutine-growth", "8"}, tc.args...)
			if code := run(args, &out, &errb); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, errb.String())
			}
			var res map[string]any
			if err := json.Unmarshal(out.Bytes(), &res); err != nil {
				t.Fatalf("non-JSON output: %v\n%s", err, out.String())
			}
			if res[tc.section] == nil {
				t.Errorf("JSON has no %s section:\n%s", tc.section, out.String())
			}
			out.Reset()
			errb.Reset()
			if code := run(append(args, "-ceil-p99", "1ns"), &out, &errb); code != 1 {
				t.Errorf("impossible -ceil-p99: exit %d, want 1; stderr: %s", code, errb.String())
			}
		})
	}
}

// TestGateFailures breaks each remaining gate on a result no healthy run
// produces: a refused attach left without a Busy frame, goroutines
// surviving teardown, and a cold handoff.
func TestGateFailures(t *testing.T) {
	healthy := load.Result{
		Sessions: 200, SessionsPerSec: 1e4, GoroutinesBefore: 10, GoroutinesAfter: 11,
		Latency:   load.Latency{Samples: 1000, P99: time.Millisecond},
		Admission: &load.AdmissionStats{Rejected: 100, BusyFrames: 100},
		Tree:      &load.TreeStats{Handoffs: 40},
	}
	var errb bytes.Buffer
	if code := gate(&errb, healthy, 500, 100*time.Millisecond, 8); code != 0 {
		t.Fatalf("healthy result failed the gates: %s", errb.String())
	}
	for name, broken := range map[string]func(r *load.Result){
		"busy==rejected": func(r *load.Result) { r.Admission = &load.AdmissionStats{Rejected: 100, BusyFrames: 99} },
		"goroutines":     func(r *load.Result) { r.GoroutinesAfter = r.GoroutinesBefore + 9 },
		"cold handoff":   func(r *load.Result) { r.Tree = &load.TreeStats{Handoffs: 40, ColdHandoffs: 1} },
	} {
		res := healthy
		broken(&res)
		if code := gate(&errb, res, 500, 100*time.Millisecond, 8); code != 1 {
			t.Errorf("%s: exit %d, want 1", name, code)
		}
	}
}
