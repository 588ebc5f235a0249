package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fees"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/netsim"
	"repro/internal/relayer"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/transfer"
)

// mesh-line offers meshPerFlow routed transfers on each flow at uniformly
// random times within meshWindow (a Poisson stream conditioned on its
// count), then drains for meshDrain, the drain experiments.RunMesh uses.
const (
	meshPerFlow = 200
	meshWindow  = 4 * time.Hour
	meshDrain   = 3 * time.Hour
)

// meshFlows are RunMesh's line flows: guest>c crosses two forwarding
// chains, a>c one, and c>a runs against the first two.
var meshFlows = []struct{ src, dst string }{{"guest", "c"}, {"a", "c"}, {"c", "a"}}

// applyMeshChaos sets RunMesh's per-link fault profile: 5% drop in both
// directions and a distinct latency range per direction and link.
func applyMeshChaos(spec *core.MeshSpec) {
	for i := range spec.Links {
		l := &spec.Links[i]
		step := time.Duration(i) * 15 * time.Millisecond
		l.NetA = netsim.LinkConfig{
			Latency: sim.Uniform{Min: 20*time.Millisecond + step, Max: 90*time.Millisecond + 2*step},
			Drop:    0.05,
		}
		l.NetB = netsim.LinkConfig{
			Latency: sim.Uniform{Min: 60*time.Millisecond + step, Max: 200*time.Millisecond + 2*step},
			Drop:    0.05,
		}
	}
}

// meshTransfer is one routed transfer's record.
type meshTransfer struct {
	flow       int
	tag        string
	amount     uint64
	due        time.Time
	sent       bool
	deliveries int
	deliverAt  time.Time
	ackAt      time.Time
}

func meshRound(seed int64) (*round, error) {
	run := &netRun{label: "mesh", layer: newAcc()}
	start := time.Now()
	spec := experiments.LineMeshTopology()
	applyMeshChaos(&spec)
	net, err := core.NewNetwork(core.Config{Seed: seed, Mesh: spec, Behaviours: experiments.HealthyBehaviours(8)})
	if err != nil {
		run.setupErr = err
		run.out.offered = meshPerFlow * len(meshFlows)
		return &round{runs: []*netRun{run}, refs: []*netRun{run}}, nil
	}
	users := make([]*core.User, len(meshFlows))
	for i, f := range meshFlows {
		denom := fmt.Sprintf("MESH%d", i)
		if f.src == net.Mesh.GuestName {
			users[i] = net.NewUser(fmt.Sprintf("mesh-sender-%d", i), 10_000*host.LamportsPerSOL, denom, 1<<40)
		} else {
			net.Mesh.Chain(f.src).Apps["transfer"].Mint(fmt.Sprintf("mesh-sender-%d", i), denom, 1<<40)
		}
	}
	run.setupS = time.Since(start).Seconds()

	// Schedule every transfer; the taps below match deliveries and
	// cosmos-side acks back to them by memo tag and first-hop packet.
	rng := rand.New(rand.NewSource(sim.DeriveSeed(seed, "benchmark/mesh")))
	t0 := net.Sched.Now()
	byTag := make(map[string]*meshTransfer)
	byPacket := make(map[string]*meshTransfer)
	routes := make([]*core.RoutedSend, len(meshFlows))
	var all []*meshTransfer
	for i, f := range meshFlows {
		offsets := make([]time.Duration, meshPerFlow)
		for j := range offsets {
			offsets[j] = time.Duration(rng.Int63n(int64(meshWindow)))
		}
		sort.Slice(offsets, func(a, b int) bool { return offsets[a] < offsets[b] })
		for j, off := range offsets {
			mt := &meshTransfer{flow: i, tag: fmt.Sprintf("bm-%d-%06d", i, j), amount: 1 + uint64(rng.Intn(200)), due: t0.Add(off)}
			byTag[mt.tag] = mt
			all = append(all, mt)
			i, f := i, f
			net.Sched.At(mt.due, func() {
				denom := fmt.Sprintf("MESH%d", i)
				receiver := fmt.Sprintf("mesh-recv-%d", i)
				var rs *core.RoutedSend
				var err error
				if users[i] != nil {
					rs, err = net.SendRoutedFromGuest(users[i], f.dst, receiver, denom, mt.amount, mt.tag, fees.BundlePolicy, 0)
				} else {
					rs, err = net.SendRouted(f.src, f.dst, fmt.Sprintf("mesh-sender-%d", i), receiver, denom, mt.amount, mt.tag, 0)
				}
				if err != nil {
					// Refused at the source; counted as refused below.
					fmt.Printf("  mesh send %s refused: %v\n", mt.tag, err)
					return
				}
				mt.sent = true
				routes[i] = rs
				if rs.Packet != nil {
					byPacket[packetKey(rs.Packet)] = mt
				}
			})
		}
	}
	// Tap every cosmos chain a flow starts or ends on.
	taps := make(map[string]bool)
	for _, f := range meshFlows {
		taps[f.dst] = true
		if f.src != net.Mesh.GuestName {
			taps[f.src] = true
		}
	}
	for name := range taps {
		net.Mesh.Chain(name).CP.Handler().Events().Subscribe(func(ev telemetry.Event) {
			switch e := ev.(type) {
			case ibc.EventWriteAck:
				if !transfer.IsSuccessAck(e.Ack) {
					return
				}
				d, err := transfer.UnmarshalPacketData(e.Packet.Data)
				if err != nil {
					return
				}
				if mt, ok := byTag[d.Memo]; ok {
					mt.deliveries++
					if mt.deliveries == 1 {
						mt.deliverAt = net.Sched.Now()
					}
				}
			case ibc.EventAcknowledgePacket:
				if mt, ok := byPacket[packetKey(e.Packet)]; ok && mt.ackAt.IsZero() {
					mt.ackAt = net.Sched.Now()
				}
			}
		})
	}

	start = time.Now()
	net.Run(meshWindow + meshDrain)
	run.driveS = time.Since(start).Seconds()
	run.simDays = (meshWindow + meshDrain).Hours() / 24
	run.windowS = meshWindow.Seconds()
	end := net.Sched.Now()
	snap := net.SnapshotTelemetry()

	var guestNS, pairNS []string
	for _, l := range net.Mesh.Links {
		ns := "relayer.link." + l.ID
		if l.Relayer == nil {
			pairNS = append(pairNS, ns)
			continue
		}
		guestNS = append(guestNS, ns)
		guestAcks(l.Relayer.Traces, snap.Traces, byTag)
	}

	for _, mt := range all {
		run.out.offered++
		if !mt.sent {
			run.out.refused++
			continue
		}
		if mt.deliveries > 1 {
			run.violate("%s credited %d times", mt.tag, mt.deliveries)
		}
		deliver, ack := mt.deliverAt, mt.ackAt
		if deliver.IsZero() {
			deliver = end
		} else {
			run.out.delivered++
			if mt.flow == 0 {
				run.feeTransfers++
			}
		}
		if ack.IsZero() {
			ack = end
		} else {
			run.out.acked++
			if !ack.After(t0.Add(meshWindow)) {
				run.ackedInWindow++
			}
		}
		run.deliver = append(run.deliver, deliver.Sub(mt.due).Seconds())
		run.ack = append(run.ack, ack.Sub(mt.due).Seconds())
	}
	checkMeshFlows(run, net, routes, all)
	checkFeeEscrow(run, snap, run.out.acked < run.out.offered)

	run.feeLamports = snap.Counter("host.fees_lamports")
	run.layer.add("offered", float64(run.out.offered))
	run.layer.add("acked", float64(run.out.acked))
	layerCounts(run.layer, snap, guestNS, pairNS)
	run.fingerprint = fingerprint(snap, run.out, run.deliver, run.ack)
	return &round{runs: []*netRun{run}, refs: []*netRun{run}, heapMB: liveHeapMB(net), net: net, release: func() {}}, nil
}

func packetKey(p *ibc.Packet) string {
	return fmt.Sprintf("%s/%s/%d", p.SourcePort, p.SourceChannel, p.Sequence)
}

// guestAcks records the source-side ack of guest-sent transfers: the guest
// link relayer traces their first hop, whose memo nests the transfer tag.
func guestAcks(relTraces map[string]*relayer.PacketTrace, traces []telemetry.Trace, byTag map[string]*meshTransfer) {
	for _, tr := range traces {
		pt, ok := relTraces[tr.Key]
		if !ok {
			continue
		}
		ack, ok := tr.Span(telemetry.StageAck)
		if !ok {
			continue
		}
		d, err := transfer.UnmarshalPacketData(pt.Packet.Data)
		if err != nil {
			continue
		}
		i := strings.Index(d.Memo, "bm-")
		if i < 0 || i+len("bm-0-000000") > len(d.Memo) {
			continue
		}
		if mt, ok := byTag[d.Memo[i:i+len("bm-0-000000")]]; ok {
			mt.ackAt = ack.At
		}
	}
}

// checkMeshFlows asserts exact per-hop conservation: the first hop escrows
// exactly the flow's sent tokens, each later hop escrows no more than the
// one before it, the receiver holds no more than the last hop escrowed and
// exactly the delivered tokens; once every transfer of a flow is delivered
// all of these are equal and the forwarding accounts hold nothing.
func checkMeshFlows(run *netRun, net *core.Network, routes []*core.RoutedSend, all []*meshTransfer) {
	for i, f := range meshFlows {
		rs := routes[i]
		if rs == nil {
			run.violate("flow %s>%s sent nothing", f.src, f.dst)
			continue
		}
		var sent, delivered uint64
		complete := true
		for _, mt := range all {
			if mt.flow != i || !mt.sent {
				continue
			}
			sent += mt.amount
			if mt.deliveries > 0 {
				delivered += mt.amount
			} else {
				complete = false
			}
		}
		last := rs.Route[len(rs.Route)-1]
		received := net.Mesh.Chain(f.dst).Apps[last.DestPort].Balance(fmt.Sprintf("mesh-recv-%d", i), rs.DenomTrace[len(rs.DenomTrace)-1])
		if received != delivered {
			run.violate("flow %s>%s: receiver holds %d, delivered transfers carried %d", f.src, f.dst, received, delivered)
		}
		prev := sent
		for hi, h := range rs.Route {
			app := net.Mesh.Chain(h.From).Apps[h.Port]
			esc := app.EscrowedAmount(h.Channel, rs.DenomTrace[hi])
			if (hi == 0 && esc != sent) || esc > prev || (complete && esc != sent) {
				run.violate("flow %s>%s hop %d: escrow %d, previous hop %d, sent %d", f.src, f.dst, hi, esc, prev, sent)
			}
			if hi > 0 && complete && app.Balance(net.Mesh.ForwardAccount, rs.DenomTrace[hi]) != 0 {
				run.violate("flow %s>%s hop %d: forwarding account not flat", f.src, f.dst, hi)
			}
			prev = esc
		}
		if received > prev {
			run.violate("flow %s>%s: receiver holds %d, last hop escrowed %d", f.src, f.dst, received, prev)
		}
	}
}
