package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fees"
	"repro/internal/host"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// workload is one named input set. A run executes rounds: round i builds
// fresh networks from a seed derived from (seed, i), drives them on the
// virtual clock and checks them. The first `rounds` rounds are the
// virtual-time sample, so their metrics are a pure function of the seed;
// further rounds run only while --seconds has not elapsed and feed the
// wall-time metrics alone.
type workload struct {
	name   string
	why    string
	rounds int
	round  func(seed int64) (*round, error)
}

// defaultSeed is every workload's pinned seed; pass --seed to hold one
// out.
const defaultSeed = 1

var workloads = map[string]*workload{
	"pair-ramp": {
		name:   "pair-ramp",
		why:    "guest<->Picasso pair, 2 channels, open-loop Poisson ladder 0.25-4 pkt/s across the ack knee",
		rounds: 1,
		round:  rampRound,
	},
	"pair-overload": {
		name:   "pair-overload",
		why:    "same pair on the tight overload host, bursty load far above capacity, WAL-backed guest store",
		rounds: 40,
		round:  overloadRound,
	},
	"mesh-line": {
		name:   "mesh-line",
		why:    "4-chain line guest-a-b-c under 5% drop and asymmetric latency, routed guest>c, a>c, c>a flows",
		rounds: 4,
		round:  meshRound,
	},
	"deploy": {
		name:   "deploy",
		why:    "the paper's closed-loop deployment: 24 Table I validators, 14 out / 8 in packets per day",
		rounds: 7,
		round:  deployRound,
	},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// roundSeed derives round i's seed; distinct rounds never share signing
// payloads, so the process-wide signature cache cannot carry one round's
// work into the next.
func roundSeed(seed int64, i int) int64 {
	return sim.DeriveSeed(seed, fmt.Sprintf("benchmark/round/%d", i))
}

// outcomes classifies every transfer a network was offered by its state
// at the end of the run.
type outcomes struct {
	offered   int
	acked     int
	timedOut  int
	refused   int // rejected at mempool admission
	shed      int // dropped from the mempool past its deadline
	delivered int // funds credited on the final destination
}

// settled counts transfers in a terminal state.
func (o outcomes) settled() int { return o.acked + o.timedOut + o.refused + o.shed }

// netRun is one network built, driven and checked.
type netRun struct {
	label string
	// setupErr is the error a network build returned: the transfers it
	// would have carried count as offered and failed.
	setupErr error
	setupS   float64 // wall: build, handshakes, account prewarm
	driveS   float64 // wall: the virtual-clock run
	simDays  float64
	out      outcomes
	// deliver / ack are per-transfer virtual latencies in seconds from the
	// moment the transfer was due. A transfer not delivered (acked) by the
	// end of the run is counted with its age at that moment: a lower
	// bound, so a liveness failure always shows as latency.
	deliver, ack []float64
	// feeLamports are the host fees of the run; feeTransfers the
	// transfers delivered across the guest link that paid them.
	feeLamports  uint64
	feeTransfers int
	// ackedInWindow counts acks that landed within the offered window of
	// windowS seconds (the whole run for the closed-loop deploy).
	ackedInWindow int
	windowS       float64
	layer         *acc
	fingerprint   string
	violations    []string
}

func (n *netRun) violate(format string, args ...any) {
	n.violations = append(n.violations, n.label+": "+fmt.Sprintf(format, args...))
}

// round is one round of a workload: one network, or one per ladder rung.
type round struct {
	runs []*netRun
	// refs are the runs whose latencies and fees are reported.
	refs   []*netRun
	heapMB float64
	// knee / kneeRung are the pair-ramp capacity figures (0 elsewhere).
	knee, kneeRung float64
	// net is the round's last network, kept for the traced run's timed
	// calls; release frees what it holds (WAL directories).
	net     *core.Network
	release func()
}

// measurement aggregates the rounds of one run.
type measurement struct {
	w          *workload
	rounds     []*round
	attempted  int
	failed     int
	violations []string
	// setupFailures counts networks whose build returned an error.
	setupFailures int
	layers        map[string]float64
	// net / release are the last round's network (see round.net).
	net     *core.Network
	release func()
}

// measure runs w's fixed rounds, then keeps running rounds until seconds
// of wall time have passed. A round runs only after the previous round's
// network was released, so the heap figure sees one network at a time.
func measure(w *workload, seed int64, seconds time.Duration, from int) (*measurement, error) {
	m := &measurement{w: w}
	start := time.Now()
	for i := 0; i < w.rounds || time.Since(start) < seconds; i++ {
		m.drop()
		r, err := w.round(roundSeed(seed, from+i))
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", from+i, err)
		}
		m.net, m.release, r.net, r.release = r.net, r.release, nil, nil
		m.rounds = append(m.rounds, r)
		for _, run := range r.runs {
			if run.setupErr != nil {
				m.setupFailures++
				fmt.Printf("  round %d %s: network build failed, its %d transfers count as failed: %v\n", from+i, run.label, run.out.offered, run.setupErr)
			}
			m.violations = append(m.violations, run.violations...)
			if i < w.rounds {
				m.attempted += run.out.offered
				m.failed += run.out.offered - run.out.acked
			}
		}
	}
	for _, ref := range m.refs() {
		if len(ref.deliver) > 0 {
			return m, nil
		}
	}
	return nil, fmt.Errorf("no fixed round produced a latency sample (%d network builds failed)", m.setupFailures)
}

// drop releases the kept network.
func (m *measurement) drop() {
	if m.release != nil {
		m.release()
	}
	m.net, m.release = nil, nil
}

// fixed returns the rounds whose virtual-time results are reported.
func (m *measurement) fixed() []*round { return m.rounds[:m.w.rounds] }

// refs returns the fixed rounds' reference runs.
func (m *measurement) refs() []*netRun {
	var out []*netRun
	for _, r := range m.fixed() {
		out = append(out, r.refs...)
	}
	return out
}

// latencies pools the reference runs' deliver and ack samples.
func (m *measurement) latencies() (deliver, ack []float64) {
	for _, ref := range m.refs() {
		deliver = append(deliver, ref.deliver...)
		ack = append(ack, ref.ack...)
	}
	return deliver, ack
}

// endToEnd computes the untraced metrics: wall-time figures over every
// round, virtual-time figures over the fixed rounds.
func (m *measurement) endToEnd() map[string]float64 {
	var setups, heaps []float64
	var drive, days float64
	var settled int
	for _, r := range m.rounds {
		if r.heapMB > 0 {
			heaps = append(heaps, r.heapMB)
		}
		for _, run := range r.runs {
			if run.setupErr == nil {
				setups = append(setups, run.setupS)
			}
			drive += run.driveS
			days += run.simDays
			settled += run.out.settled()
		}
	}
	var fee uint64
	var feeN int
	for _, ref := range m.refs() {
		fee += ref.feeLamports
		feeN += ref.feeTransfers
	}
	deliver, ack := m.latencies()
	return map[string]float64{
		"setup_s":               stats.QuantileUnsorted(setups, 0.5),
		"settled_per_wall_s":    float64(settled) / drive,
		"wall_s_per_sim_day":    drive / days,
		"retained_heap_mb":      stats.QuantileUnsorted(heaps, 0.5),
		"deliver_p50_s":         stats.QuantileUnsorted(deliver, 0.5),
		"deliver_p95_s":         stats.QuantileUnsorted(deliver, 0.95),
		"ack_p50_s":             stats.QuantileUnsorted(ack, 0.5),
		"ack_p95_s":             stats.QuantileUnsorted(ack, 0.95),
		"fee_usd_per_delivered": fees.USD(host.Lamports(fee)) / float64(max(feeN, 1)),
	}
}

// print writes the human-readable run summary.
func (m *measurement) print() {
	var drive float64
	var n int
	for _, r := range m.rounds {
		for _, run := range r.runs {
			drive += run.driveS
			n++
		}
	}
	fmt.Printf("  %d rounds (%d fixed), %d networks, %.2f wall-s driving\n", len(m.rounds), m.w.rounds, n, drive)
	fmt.Printf("  open-loop load is injected on the virtual clock exactly when due: generator lag is 0 by construction\n")
	for i, r := range m.fixed() {
		for _, run := range r.runs {
			o := run.out
			fmt.Printf("  round %d %-12s offered %6d acked %6d delivered %6d refused %6d shed %5d timed-out %d  wall %.3fs  fp %s\n",
				i, run.label, o.offered, o.acked, o.delivered, o.refused, o.shed, o.timedOut, run.driveS, run.fingerprint[:min(12, len(run.fingerprint))])
		}
		if r.knee > 0 {
			fmt.Printf("  round %d knee %.3f pkt/s (highest passing rung %.2f pkt/s)\n", i, r.knee, r.kneeRung)
		}
	}
	deliver, ack := m.latencies()
	for _, s := range []struct {
		name string
		v    []float64
	}{{"deliver", deliver}, {"ack", ack}} {
		fmt.Printf("  %-7s n=%d p50 %.3fs p90 %.3fs p95 %.3fs p99 %.3fs\n", s.name, len(s.v),
			stats.QuantileUnsorted(s.v, 0.5), stats.QuantileUnsorted(s.v, 0.9), stats.QuantileUnsorted(s.v, 0.95), stats.QuantileUnsorted(s.v, 0.99))
	}
	fmt.Printf("  attempted %d, not acked by end of drain %d (fail_frac %.4f)\n",
		m.attempted, m.failed, float64(m.failed)/float64(max(m.attempted, 1)))
}

// liveHeapMB forces a collection and returns the live heap in MiB while
// keep is still reachable.
func liveHeapMB(keep any) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// fingerprint digests a run's virtual-time results: every telemetry
// counter, the outcome counts and every latency sample. Two runs of the
// same seed must produce the same digest.
func fingerprint(snap telemetry.Snapshot, o outcomes, samples ...[]float64) string {
	h := sha256.New()
	keys := make([]string, 0, len(snap.Counters))
	for k := range snap.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%d\n", k, snap.Counters[k])
	}
	fmt.Fprintf(h, "%+v\n", o)
	for _, s := range samples {
		for _, v := range s {
			fmt.Fprintf(h, "%x ", v)
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkFeeEscrow asserts ICS-29 fee conservation wherever fee middleware
// ran: every channel's escrowed fees are at least paid + refunded, and
// equal them once nothing is pending. No workload installs fees today,
// so the check finds no counters and passes vacuously.
func checkFeeEscrow(run *netRun, snap telemetry.Snapshot, pending bool) {
	for k, esc := range snap.Counters {
		if !strings.HasSuffix(k, ".escrowed_tokens") {
			continue
		}
		base := strings.TrimSuffix(k, ".escrowed_tokens")
		done := snap.Counters[base+".paid_tokens"] + snap.Counters[base+".refunded_tokens"]
		if esc < done || (!pending && esc != done) {
			run.violate("fee escrow %s: escrowed %d, paid+refunded %d", base, esc, done)
		}
	}
}
