package main

import (
	"strings"

	"repro/internal/nodestore"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// perLayer lists the metrics of a traced run, in print order. Figures a
// workload does not exercise read 0 (for example nodestore.* outside
// pair-overload and pair.* outside mesh-line).
var perLayer = []metricDef{
	// Workload-level virtual-time figures.
	{"knee_pps", "pkt/s"},
	{"knee_rung_pps", "pkt/s"},
	{"goodput_pps", "pkt/s"},
	{"fail_frac", "ratio"},
	{"deliver_samples", "count"},
	{"ack_samples", "count"},
	{"deliver_p99_s", "s"},
	{"ack_p99_s", "s"},
	{"ack_censored_frac", "ratio"},
	{"trace_overhead_frac", "ratio"},
	{"setup_failures", "count"},
	// Packet lifecycle stages (guest-sent pair packets).
	{"stage.checked", "count"},
	{"stage.submit_p50_s", "s"},
	{"stage.send_commit_p99_s", "s"},
	{"stage.finalise_pickup_p99_s", "s"},
	// guest / guestblock / validator.
	{"guest.finalise_p50_s", "s"},
	{"guest.finalise_p99_s", "s"},
	{"guest.block_interval_p50_s", "s"},
	{"validator.sign_p50_s", "s"},
	// relayer.
	{"relayer.relay_p50_s", "s"},
	{"relayer.relay_p99_s", "s"},
	{"relayer.ack_leg_p50_s", "s"},
	{"relayer.ack_leg_p99_s", "s"},
	{"relayer.update_p50_s", "s"},
	{"relayer.update_p99_s", "s"},
	{"relayer.updates_per_ack", "count"},
	{"relayer.txs_per_update", "count"},
	{"relayer.net_retries_per_transfer", "count"},
	{"pair.updates_per_pkt", "count"},
	{"pair.hop_p50_s", "s"},
	{"pair.hop_p99_s", "s"},
	// host.
	{"host.refused_frac", "ratio"},
	{"host.shed_frac", "ratio"},
	{"host.failed_tx_frac", "ratio"},
	{"host.txs_per_transfer", "count"},
	{"host.cu_per_transfer", "CU"},
	// netsim.
	{"netsim.msgs_per_transfer", "count"},
	{"netsim.dropped_frac", "ratio"},
	// nodestore.
	{"nodestore.bytes_per_block", "B"},
	{"nodestore.syncs_per_block", "count"},
	{"nodestore.sync_p99_ms", "ms"},
	{"nodestore.dedup_frac", "ratio"},
	// telemetry.
	{"telemetry.tracer_traces", "count"},
}

// acc pools per-layer samples and counts across networks and rounds.
type acc struct {
	samples map[string][]float64
	counts  map[string]float64
}

func newAcc() *acc {
	return &acc{samples: make(map[string][]float64), counts: make(map[string]float64)}
}

func (a *acc) obs(name string, v ...float64) { a.samples[name] = append(a.samples[name], v...) }
func (a *acc) add(name string, v float64)    { a.counts[name] += v }

func (a *acc) merge(b *acc) {
	for k, v := range b.samples {
		a.obs(k, v...)
	}
	for k, v := range b.counts {
		a.add(k, v)
	}
}

// q returns the q-quantile of a pooled sample (0 when empty).
func (a *acc) q(name string, q float64) float64 { return stats.QuantileUnsorted(a.samples[name], q) }

// ratio returns counts[num] / counts[den], 0 when the denominator is.
func (a *acc) ratio(num, den string) float64 {
	if a.counts[den] == 0 {
		return 0
	}
	return a.counts[num] / a.counts[den]
}

// layerCounts records one network's relayer, host, netsim, guest and
// validator figures from its telemetry. guestNS and pairNS are the metric
// namespaces of its guest-link and cosmos pair-link relayers.
func layerCounts(a *acc, snap telemetry.Snapshot, guestNS, pairNS []string) {
	for _, ns := range guestNS {
		a.obs("update", snap.HistogramSamples(ns+".update.latency_s")...)
		a.obs("update_txs", snap.HistogramSamples(ns+".update.txs")...)
		a.add("client_updates", float64(snap.Counter(ns+".client_updates")))
		a.add("relayer_retries", float64(snap.Counter(ns+".net_retries")))
	}
	for _, ns := range pairNS {
		a.obs("hop", snap.HistogramSamples(ns+".hop.latency_s")...)
		a.add("pair_updates", float64(snap.Counter(ns+".client_updates")))
		a.add("pair_delivered", float64(snap.Counter(ns+".delivered")))
		a.add("relayer_retries", float64(snap.Counter(ns+".net_retries")))
	}
	a.obs("block_interval", snap.HistogramSamples("guest.block.interval_s")...)
	a.obs("sign", snap.HistogramSamples("validator.sign_latency_s")...)
	a.add("host_submitted", float64(snap.Counter("host.txs_submitted")))
	a.add("host_executed", float64(snap.Counter("host.txs_executed")))
	a.add("host_failed", float64(snap.Counter("host.txs_failed")))
	a.add("host_cu", snap.Histograms["host.tx_compute_units"].Sum)
	a.add("net_sent", float64(snap.Counter("netsim.sent")))
	a.obs("tracer_traces", float64(len(snap.Traces)))
	for k, v := range snap.Counters {
		if strings.HasPrefix(k, "netsim.dropped") {
			a.add("net_dropped", float64(v))
		}
	}
}

// storeCounts records a persisted store's counters.
func storeCounts(a *acc, st nodestore.Stats) {
	a.add("store_bytes", float64(st.BytesAppended))
	a.add("store_roots", float64(st.RootsCommitted))
	a.add("store_syncs", float64(st.Syncs))
	a.add("store_written", float64(st.NodesWritten))
	a.add("store_deduped", float64(st.NodesDeduped))
	a.obs("store_sync_p99_ms", st.SyncP99Ms)
}

// p99 is the 99th percentile where at least 1,000 samples support it
// (ten beyond it), else 0.
func p99(v []float64) float64 {
	if len(v) < 1000 {
		return 0
	}
	return stats.QuantileUnsorted(v, 0.99)
}

// layerMetrics turns the fixed rounds' pooled figures into the per-layer
// metrics (all but the cpu.*, alloc and call.* figures).
func (m *measurement) layerMetrics() map[string]float64 {
	a := newAcc()
	var knees, rungs []float64
	for _, r := range m.fixed() {
		for _, run := range r.runs {
			a.merge(run.layer)
		}
		knees = append(knees, r.knee)
		rungs = append(rungs, r.kneeRung)
	}
	var goodput, window float64
	var censored int
	for _, ref := range m.refs() {
		censored += len(ref.ack) - ref.out.acked
		goodput += float64(ref.ackedInWindow)
		window += ref.windowS
	}
	deliver, ack := m.latencies()
	out := map[string]float64{
		"knee_pps":          stats.QuantileUnsorted(knees, 0.5),
		"knee_rung_pps":     stats.QuantileUnsorted(rungs, 0.5),
		"goodput_pps":       goodput / window,
		"fail_frac":         float64(m.failed) / float64(max(m.attempted, 1)),
		"deliver_samples":   float64(len(deliver)),
		"ack_samples":       float64(len(ack)),
		"deliver_p99_s":     p99(deliver),
		"ack_p99_s":         p99(ack),
		"ack_censored_frac": float64(max(censored, 0)) / float64(max(len(ack), 1)),
		"setup_failures":    float64(m.setupFailures),

		"stage.checked":               a.counts["stage.checked"],
		"stage.submit_p50_s":          a.q("stage.submit", 0.5),
		"stage.send_commit_p99_s":     a.q("stage.send_commit", 0.99),
		"stage.finalise_pickup_p99_s": a.q("stage.finalise_pickup", 0.99),

		"guest.finalise_p50_s":       a.q("stage.commit_finalise", 0.5),
		"guest.finalise_p99_s":       a.q("stage.commit_finalise", 0.99),
		"guest.block_interval_p50_s": a.q("block_interval", 0.5),
		"validator.sign_p50_s":       a.q("sign", 0.5),

		"relayer.relay_p50_s":              a.q("stage.pickup_recv", 0.5),
		"relayer.relay_p99_s":              a.q("stage.pickup_recv", 0.99),
		"relayer.ack_leg_p50_s":            a.q("stage.recv_ack", 0.5),
		"relayer.ack_leg_p99_s":            a.q("stage.recv_ack", 0.99),
		"relayer.update_p50_s":             a.q("update", 0.5),
		"relayer.update_p99_s":             a.q("update", 0.99),
		"relayer.updates_per_ack":          a.counts["client_updates"] / max(a.counts["acked"], 1),
		"relayer.txs_per_update":           stats.Mean(a.samples["update_txs"]),
		"relayer.net_retries_per_transfer": a.ratio("relayer_retries", "offered"),
		"pair.updates_per_pkt":             a.ratio("pair_updates", "pair_delivered"),
		"pair.hop_p50_s":                   a.q("hop", 0.5),
		"pair.hop_p99_s":                   a.q("hop", 0.99),

		"host.refused_frac":     a.ratio("refused", "offered"),
		"host.shed_frac":        a.ratio("shed", "offered"),
		"host.failed_tx_frac":   a.ratio("host_failed", "host_submitted"),
		"host.txs_per_transfer": a.ratio("host_executed", "offered"),
		"host.cu_per_transfer":  a.ratio("host_cu", "offered"),

		"netsim.msgs_per_transfer": a.ratio("net_sent", "offered"),
		"netsim.dropped_frac":      a.ratio("net_dropped", "net_sent"),

		"nodestore.bytes_per_block": a.ratio("store_bytes", "store_roots"),
		"nodestore.syncs_per_block": a.ratio("store_syncs", "store_roots"),
		"nodestore.sync_p99_ms":     a.q("store_sync_p99_ms", 0.5),
		"nodestore.dedup_frac":      a.counts["store_deduped"] / max(a.counts["store_written"]+a.counts["store_deduped"], 1),

		"telemetry.tracer_traces": a.q("tracer_traces", 1),
	}
	if len(a.samples["update_txs"]) == 0 {
		out["relayer.txs_per_update"] = 0
	}
	return out
}
