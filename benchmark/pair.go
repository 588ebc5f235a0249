package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/guest"
	"repro/internal/host"
	"repro/internal/loadgen"
	"repro/internal/relayer"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/transfer"
)

// The pair-ramp ladder spans today's ack knee. Every rung offers Poisson
// load for rampWindow and drains for the DefaultLoadConfig drain; a rung
// passes when at least 99% of its offered transfers ack by the end of the
// drain and their ack p99 stays within kneeLimit (well inside the 1 h
// packet timeout). The reference rung, below the knee, supplies the
// reported latencies and fees; rampRefExtra more networks at its rate,
// each from its own seed, widen that sample, because one network's ack
// latency depends on where its few chunked updates happen to fall.
var (
	rampLadder = []float64{0.25, 0.5, 1, 2, 4}
	rampRef    = 0.5
)

const rampRefExtra = 5

const (
	rampWindow = 20 * time.Minute
	kneeLimit  = 10 * time.Minute
)

func rampRound(seed int64) (*round, error) {
	r := &round{}
	// The extra reference networks run first, so the top rung's network
	// is the one left live for the heap figure and the timed calls.
	for i := 0; i < rampRefExtra; i++ {
		cfg := experiments.DefaultLoadConfig()
		cfg.Seed = sim.DeriveSeed(seed, fmt.Sprintf("benchmark/ramp-ref/%d", i))
		cfg.Rate = rampRef
		cfg.Duration = rampWindow
		run, _, release, err := runPair(fmt.Sprintf("%.2fpps-%d", rampRef, i+1), cfg, false)
		if err != nil {
			return nil, err
		}
		release()
		r.runs = append(r.runs, run)
		r.refs = append(r.refs, run)
	}
	var scores []float64
	for _, rate := range rampLadder {
		cfg := experiments.DefaultLoadConfig()
		cfg.Seed = seed
		cfg.Rate = rate
		cfg.Duration = rampWindow
		run, net, release, err := runPair(fmt.Sprintf("%.2fpps", rate), cfg, false)
		if err != nil {
			return nil, err
		}
		r.runs = append(r.runs, run)
		if rate == rampRef {
			r.refs = append(r.refs, run)
		}
		scores = append(scores, rungScore(run))
		if rate == rampLadder[len(rampLadder)-1] && net != nil {
			r.heapMB = liveHeapMB(net)
			r.net, r.release = net, release
		} else {
			release()
		}
	}
	r.knee, r.kneeRung = knee(rampLadder, scores)
	return r, nil
}

// rungScore is max(ack p99 / kneeLimit, 0.99 / acked share): a rung
// passes when its score is at most 1.
func rungScore(run *netRun) float64 {
	acked := float64(run.out.acked) / float64(max(run.out.offered, 1))
	p99 := stats.QuantileUnsorted(run.ack, 0.99) / kneeLimit.Seconds()
	if acked == 0 || run.setupErr != nil {
		return 1e9
	}
	return max(p99, 0.99/acked)
}

// knee returns the interpolated capacity knee and the highest passing
// rung. The knee is where the rung score crosses 1, interpolated linearly
// in rate between the last passing and the first failing rung (from rate
// 0 when the first rung fails); with every rung passing it is the top
// rung.
func knee(ladder, scores []float64) (interp, rung float64) {
	lo, slo := 0.0, 0.0
	for i, s := range scores {
		if s > 1 {
			return lo + (ladder[i]-lo)*(1-slo)/(s-slo), lo
		}
		lo, slo = ladder[i], s
	}
	return lo, lo
}

func overloadRound(seed int64) (*round, error) {
	cfg := experiments.DefaultOverloadConfig()
	cfg.Seed = seed
	run, net, release, err := runPair("overload", cfg, true)
	if err != nil {
		return nil, err
	}
	r := &round{runs: []*netRun{run}, refs: []*netRun{run}, net: net, release: release}
	if net != nil {
		r.heapMB = liveHeapMB(net)
	}
	return r, nil
}

// runPair builds the guest<->counterparty pair the way experiments.RunLoad
// does, offers cfg's open-loop load and checks the outcome. With wal the
// guest store is persisted to a write-ahead log in a temporary directory,
// which release removes.
func runPair(label string, cfg experiments.LoadConfig, wal bool) (*netRun, *core.Network, func(), error) {
	run := &netRun{label: label, layer: newAcc()}
	start := time.Now()
	params := guest.DefaultParams()
	params.PipelineDepth = cfg.PipelineDepth
	profile := host.SolanaProfile()
	if cfg.BlockComputeBudget > 0 {
		profile.BlockComputeBudget = cfg.BlockComputeBudget
	}
	ncfg := core.Config{
		Seed:         cfg.Seed,
		Channels:     experiments.ChannelTopology(cfg.Channels, 0),
		GuestParams:  params,
		HostProfile:  profile,
		MempoolLimit: cfg.MempoolLimit,
		Behaviours:   experiments.HealthyBehaviours(8),
	}
	release := func() {}
	if wal {
		dir, err := os.MkdirTemp("", "bench-wal-")
		if err != nil {
			return nil, nil, nil, err
		}
		ncfg.Store = core.StoreSpec{Dir: dir}
		release = func() { os.RemoveAll(dir) }
	}
	lcfg := loadgen.Config{
		Seed:       cfg.Seed,
		Rate:       cfg.Rate,
		Bursty:     cfg.Bursty,
		Accounts:   cfg.Accounts,
		ZipfS:      cfg.ZipfS,
		Deadline:   cfg.Deadline,
		PrewarmTop: cfg.PrewarmTop,
	}
	net, err := core.NewNetwork(ncfg)
	if err != nil {
		release()
		run.setupErr = err
		run.out.offered = len(dueTimes(lcfg, cfg.Channels, time.Time{}, cfg.Duration))
		return run, nil, func() {}, nil
	}
	if wal {
		rm := release
		release = func() {
			if err := net.CloseStores(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: close stores: %v\n", err)
			}
			rm()
		}
	}
	gen := loadgen.New(net, lcfg)
	run.setupS = time.Since(start).Seconds()

	t0 := net.Sched.Now()
	start = time.Now()
	gen.Run(cfg.Duration)
	net.Run(cfg.Duration + cfg.Drain)
	run.driveS = time.Since(start).Seconds()
	run.simDays = (cfg.Duration + cfg.Drain).Hours() / 24

	due := dueTimes(lcfg, len(net.Channels), t0, cfg.Duration)
	st := gen.Stats()
	run.out.offered = int(st.Offered)
	run.out.refused = int(st.Rejected)
	run.out.shed = int(st.Shed)
	if len(due) != run.out.offered {
		run.violate("sampler replay gives %d due times for %d offered transfers", len(due), run.out.offered)
	}
	snap := net.SnapshotTelemetry()
	pkts := tracedPackets(run, net.Relayer, snap.Traces, func(d *transfer.PacketData) (time.Time, bool) {
		k, err := strconv.Atoi(d.Memo[:max(strings.IndexByte(d.Memo, ':'), 0)])
		if err != nil || k < 1 || k > len(due) {
			return time.Time{}, false
		}
		return due[k-1], true
	}, net.Sched.Now())
	run.windowS = cfg.Duration.Seconds()
	for _, p := range pkts {
		if p.acked && !p.ackAt.After(t0.Add(cfg.Duration)) {
			run.ackedInWindow++
		}
	}
	checkPairChannels(run, net, gen, snap, pkts)
	checkFeeEscrow(run, snap, run.out.acked+run.out.timedOut < len(pkts))
	if run.out.settled() > run.out.offered {
		run.violate("more terminal outcomes (%d) than offered transfers (%d)", run.out.settled(), run.out.offered)
	}

	run.feeLamports = snap.Counter("host.fees_lamports")
	run.feeTransfers = run.out.delivered
	run.layer.add("offered", float64(run.out.offered))
	run.layer.add("acked", float64(run.out.acked))
	run.layer.add("refused", float64(run.out.refused))
	run.layer.add("shed", float64(run.out.shed))
	layerCounts(run.layer, snap, []string{"relayer"}, nil)
	if net.GuestNodeStore != nil {
		storeCounts(run.layer, net.GuestNodeStore.Stats())
	}
	run.fingerprint = fingerprint(snap, run.out, run.deliver, run.ack)
	return run, net, release, nil
}

// dueTimes replays the generator's sampler to recover when each offered
// transfer was due: the generator injects transfer k (memo prefix "k:")
// exactly at t0 plus the first k sampled gaps, and stops at t0 + window.
func dueTimes(cfg loadgen.Config, channels int, t0 time.Time, window time.Duration) []time.Time {
	s := loadgen.NewSampler(cfg, channels, nil)
	var due []time.Time
	for at := t0.Add(s.Next().Gap); !at.After(t0.Add(window)); at = at.Add(s.Next().Gap) {
		due = append(due, at)
	}
	return due
}

// packetOutcome is one guest-sent packet as the relayer traced it.
type packetOutcome struct {
	pkt                       *transfer.PacketData
	channel                   string
	delivered, acked, expired bool
	ackAt                     time.Time
}

// tracedPackets walks the guest relayer's packet traces: it classifies
// each packet's outcome, records its deliver and ack latencies from the
// moment it was due (dueOf; the send span when dueOf has none), checks
// that its stages are complete and ordered, and records the per-stage
// spans. end is the end of the run, where open latencies are censored.
func tracedPackets(run *netRun, rel *relayer.Relayer, traces []telemetry.Trace, dueOf func(*transfer.PacketData) (time.Time, bool), end time.Time) []packetOutcome {
	var out []packetOutcome
	for _, tr := range traces {
		pt, ok := rel.Traces[tr.Key]
		if !ok {
			continue
		}
		d, err := transfer.UnmarshalPacketData(pt.Packet.Data)
		if err != nil {
			run.violate("trace %s: undecodable packet data: %v", tr.Key, err)
			continue
		}
		send, ok := tr.Span(telemetry.StageSend)
		if !ok {
			run.violate("trace %s: no send span", tr.Key)
			continue
		}
		due, ok := dueOf(d)
		if !ok {
			due = send.At
		}
		po := packetOutcome{pkt: d, channel: string(pt.Packet.SourceChannel)}
		recv, hasRecv := tr.Span(telemetry.StageRecv)
		ack, hasAck := tr.Span(telemetry.StageAck)
		_, po.expired = tr.Span(telemetry.StageTimeout)
		po.delivered, po.acked, po.ackAt = hasRecv, hasAck, ack.At
		if !hasRecv {
			recv.At = end
		}
		if !hasAck {
			ack.At = end
		}
		run.deliver = append(run.deliver, recv.At.Sub(due).Seconds())
		run.ack = append(run.ack, ack.At.Sub(due).Seconds())
		switch {
		case hasAck:
			run.out.acked++
		case po.expired:
			run.out.timedOut++
		}
		if hasRecv {
			run.out.delivered++
		}
		stageSpans(run, tr, due, run.ack[len(run.ack)-1])
		out = append(out, po)
	}
	return out
}

// stageSpans records one packet's lifecycle stages and checks that
// due→send→commit→finalise→pickup→recv→ack are ordered and telescope to
// its measured ack latency (checked for acked packets only).
func stageSpans(run *netRun, tr telemetry.Trace, due time.Time, ackLatency float64) {
	stages := []string{telemetry.StageSend, telemetry.StageCommit, telemetry.StageFinalise,
		telemetry.StagePickup, telemetry.StageRecv, telemetry.StageAck}
	names := []string{"stage.submit", "stage.send_commit", "stage.commit_finalise",
		"stage.finalise_pickup", "stage.pickup_recv", "stage.recv_ack"}
	prev, sum := due, 0.0
	for i, st := range stages {
		sp, ok := tr.Span(st)
		if !ok {
			return // the packet has not reached this stage
		}
		gap := sp.At.Sub(prev).Seconds()
		if gap < 0 {
			run.violate("trace %s: stage %s at %s precedes the previous stage", tr.Key, st, sp.At)
		}
		run.layer.obs(names[i], gap)
		sum += gap
		prev = sp.At
	}
	run.layer.add("stage.checked", 1)
	if d := sum - ackLatency; d > 1e-9 || d < -1e-9 {
		run.violate("trace %s: stages sum to %.9fs, ack latency is %.9fs", tr.Key, sum, ackLatency)
	}
}

// checkPairChannels asserts per-channel conservation: escrow equals the
// admitted tokens less refunded timeouts, receivers' vouchers equal the
// tokens of exactly the packets delivered, and the relayer's delivery
// counter matches the delivered traces.
func checkPairChannels(run *netRun, net *core.Network, gen *loadgen.Generator, snap telemetry.Snapshot, pkts []packetOutcome) {
	for i, rt := range net.Channels {
		ch := string(rt.GuestChannel)
		var deliveredTokens, expiredTokens uint64
		var delivered uint64
		for _, p := range pkts {
			if p.channel != ch {
				continue
			}
			if p.delivered {
				deliveredTokens += p.pkt.Amount
				delivered++
			}
			if p.expired {
				expiredTokens += p.pkt.Amount
			}
		}
		admitted := gen.AdmittedTokens(i)
		if esc := rt.GuestApp.EscrowedAmount(rt.GuestChannel, "load"); esc != admitted-expiredTokens {
			run.violate("channel %s: escrow %d != admitted %d - timed out %d", ch, esc, admitted, expiredTokens)
		}
		voucher := fmt.Sprintf("%s/%s/load", rt.Spec.CPPort, rt.CPChannel)
		var vouchers uint64
		for r := 0; r < 64; r++ {
			vouchers += rt.CPApp.Balance(fmt.Sprintf("load-recv-%d", r), voucher)
		}
		if vouchers > admitted || vouchers != deliveredTokens {
			run.violate("channel %s: vouchers %d, delivered tokens %d, admitted %d", ch, vouchers, deliveredTokens, admitted)
		}
		if c := snap.Counter("relayer.ch." + ch + ".delivered_to_cp"); c != delivered {
			run.violate("channel %s: relayer counted %d deliveries, traces show %d", ch, c, delivered)
		}
	}
}
