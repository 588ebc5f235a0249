package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/transfer"
)

// deployDays is the simulated window of one deploy round. Per-day cost
// grows with history, so rounds stay short and the run repeats them.
const deployDays = 3

func deployRound(seed int64) (*round, error) {
	run := &netRun{label: "deploy", layer: newAcc()}
	cfg := experiments.DefaultConfig()
	cfg.Seed = seed
	cfg.Duration = deployDays * 24 * time.Hour

	// experiments.Run builds this network itself before driving it; build
	// one on its own first to time the set-up, and charge the rest of the
	// run to driving.
	start := time.Now()
	if _, err := core.NewNetwork(core.Config{Seed: seed}); err != nil {
		run.setupErr = err
		return &round{runs: []*netRun{run}, refs: []*netRun{run}}, nil
	}
	run.setupS = time.Since(start).Seconds()
	start = time.Now()
	dep, err := experiments.Run(cfg)
	if err != nil {
		return nil, err
	}
	run.driveS = max(time.Since(start).Seconds()-run.setupS, 1e-9)
	run.simDays = deployDays

	net := dep.Net
	snap := net.SnapshotTelemetry()
	pkts := tracedPackets(run, net.Relayer, snap.Traces, func(*transfer.PacketData) (time.Time, bool) {
		return time.Time{}, false
	}, net.Sched.Now())
	if len(pkts) != dep.OutboundSent {
		run.violate("%d outbound sends, %d traced packets", dep.OutboundSent, len(pkts))
	}
	inDelivered := int(snap.Counter("guest.ibc.packets_received"))
	inAcked := int(snap.Counter("cp.ibc.packets_acked"))
	run.out.offered = dep.OutboundSent + dep.InboundSent
	run.out.delivered += inDelivered
	run.out.acked += inAcked
	run.feeTransfers = run.out.delivered
	run.windowS, run.ackedInWindow = cfg.Duration.Seconds(), run.out.acked
	run.feeLamports = snap.Counter("host.fees_lamports")

	// Outbound: escrow equals the traced sends less refunded timeouts; the
	// receiver's vouchers equal exactly the delivered packets' tokens.
	rt := net.Channels[0]
	var sent, delivered, expired uint64
	for _, p := range pkts {
		sent += p.pkt.Amount
		if p.delivered {
			delivered += p.pkt.Amount
		}
		if p.expired {
			expired += p.pkt.Amount
		}
	}
	if esc := rt.GuestApp.EscrowedAmount(rt.GuestChannel, "GUEST"); esc != sent-expired {
		run.violate("outbound escrow %d != sent %d - timed out %d", esc, sent, expired)
	}
	if v := rt.CPApp.Balance("cp-receiver", fmt.Sprintf("%s/%s/GUEST", rt.Spec.CPPort, rt.CPChannel)); v != delivered {
		run.violate("outbound vouchers %d != delivered tokens %d", v, delivered)
	}
	// Inbound: every send committed once, every delivery minted once, and
	// the guest vouchers never exceed the counterparty escrow.
	if n := int(snap.Counter("cp.ibc.packets_sent")); n != dep.InboundSent {
		run.violate("inbound: %d sends, %d committed", dep.InboundSent, n)
	}
	if mints := int(snap.Counter("guest.transfer.mints")); mints != inDelivered || inDelivered > dep.InboundSent {
		run.violate("inbound: %d sent, %d received, %d minted", dep.InboundSent, inDelivered, mints)
	}
	cpEscrow := rt.CPApp.EscrowedAmount(rt.CPChannel, "PICA")
	guestVouchers := rt.GuestApp.Balance("guest-receiver", fmt.Sprintf("%s/%s/PICA", rt.Spec.GuestPort, rt.GuestChannel))
	if guestVouchers > cpEscrow || (inDelivered == dep.InboundSent && guestVouchers != cpEscrow) {
		run.violate("inbound: guest vouchers %d, counterparty escrow %d", guestVouchers, cpEscrow)
	}
	checkFeeEscrow(run, snap, run.out.acked < run.out.offered)

	run.layer.add("offered", float64(run.out.offered))
	run.layer.add("acked", float64(run.out.acked))
	layerCounts(run.layer, snap, []string{"relayer"}, nil)
	run.fingerprint = fingerprint(snap, run.out, run.deliver, run.ack)
	return &round{runs: []*netRun{run}, refs: []*netRun{run}, heapMB: liveHeapMB(dep), net: net, release: func() {}}, nil
}
