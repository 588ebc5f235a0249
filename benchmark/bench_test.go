package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/trie"
)

// TestDeterminism runs each workload's first round twice with its pinned
// seed: the virtual-time results (every telemetry counter, outcome count
// and latency sample, digested in the fingerprint, plus the knee) must be
// bit-identical. A mismatch is a determinism bug in the program, not
// noise to widen a bound for. A held-out seed must then pass the
// correctness gate.
func TestDeterminism(t *testing.T) {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		w := workloads[name]
		t.Run(name, func(t *testing.T) {
			a := runRound(t, w, roundSeed(defaultSeed, 0))
			b := runRound(t, w, roundSeed(defaultSeed, 0))
			if a.knee != b.knee {
				t.Errorf("knee %v then %v", a.knee, b.knee)
			}
			for i := range a.runs {
				if a.runs[i].fingerprint != b.runs[i].fingerprint {
					t.Errorf("%s: fingerprint %s then %s", a.runs[i].label, a.runs[i].fingerprint, b.runs[i].fingerprint)
				}
			}
			runRound(t, w, 9001)
		})
	}
}

// runRound runs one round, fails the test on any correctness violation
// and releases what the round kept.
func runRound(t *testing.T, w *workload, seed int64) *round {
	t.Helper()
	r, err := w.round(seed)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if r.release != nil {
		r.release()
	}
	for _, run := range r.runs {
		for _, v := range run.violations {
			t.Errorf("seed %d: %s", seed, v)
		}
	}
	return r
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json declares exactly
// the workloads and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayerDefs())
}

func TestKnee(t *testing.T) {
	ladder := []float64{0.25, 0.5, 1, 2, 4}
	for _, tc := range []struct {
		scores     []float64
		knee, rung float64
	}{
		{[]float64{0.1, 0.2, 0.5, 2, 9}, 1 + 0.5/1.5, 1},
		{[]float64{0.1, 0.2, 0.5, 0.8, 0.9}, 4, 4},
		{[]float64{2, 3, 4, 5, 6}, 0.25 / 2, 0},
	} {
		k, r := knee(ladder, tc.scores)
		if d := k - tc.knee; d > 1e-12 || d < -1e-12 || r != tc.rung {
			t.Errorf("knee(%v) = %v, %v; want %v, %v", tc.scores, k, r, tc.knee, tc.rung)
		}
	}
}

// TestCPUShares profiles trie work and checks the attribution charges it
// (sha256 included) to the trie bucket and that the shares sum to 1.
func TestCPUShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	tr := trie.New()
	value := cryptoutil.HashBytes([]byte("v"))
	for i, start := uint64(0), time.Now(); time.Since(start) < 500*time.Millisecond; i++ {
		if err := tr.Set([trie.KeySize]byte(cryptoutil.HashUint64('k', i)), value); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	cpu, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shares, samples := cpu.shares, cpu.samples
	if samples == 0 {
		t.Skip("profiler took no samples")
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v", sum)
	}
	if shares["trie"] < 0.5 {
		t.Errorf("trie share %v of %d samples, want most of them: %v", shares["trie"], samples, shares)
	}
}
