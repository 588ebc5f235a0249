package relayer

import (
	"math/rand"
	"time"

	"repro/internal/counterparty"
	"repro/internal/ibc"
	"repro/internal/lightclient/tendermint"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// PairSideConfig describes one end of a cosmos↔cosmos mesh link.
type PairSideConfig struct {
	Chain *counterparty.Chain
	// Node is this chain's RPC front-end on the simulated network.
	Node netsim.NodeID
	// ClientOfPeer is the tendermint client of the peer chain living on
	// this chain (from PairBootstrap).
	ClientOfPeer ibc.ClientID
	// Port/Channel are this side's end of the link's channel.
	Port    ibc.PortID
	Channel ibc.ChannelID
}

// PairConfig parameterises a PairRelayer.
type PairConfig struct {
	// LinkID is the canonical link identifier ("a-b").
	LinkID string
	// Seed drives the relayer's latency draws; mesh wiring derives it per
	// link via sim.DeriveSeed(seed, "link/<id>").
	Seed int64
	// Latency is the per-operation submission latency on either chain
	// (Cosmos submission is not the paper's bottleneck; this mirrors the
	// guest relayer's CPLatency).
	Latency sim.Dist
	// MetricsNamespace prefixes every metric (default
	// "relayer.link.<LinkID>") so links never collide in one registry.
	MetricsNamespace string
	// NodeID is the relayer's network address (default
	// netsim.LinkRelayerNode(LinkID)).
	NodeID netsim.NodeID
	// Payee is this relayer's identity in ICS-29 fee escrows (default
	// "pair:<LinkID>"). Competing relayers on one link need distinct
	// payees so first-to-deliver fee claims attribute correctly.
	Payee string

	A, B PairSideConfig
}

// pairTrace tracks one link-sourced packet until it is acked or timed out.
type pairTrace struct {
	packet    *ibc.Packet
	src       *pairSide
	sentAt    time.Time
	delivered bool
	inFlight  bool // a timeout submission is pending
}

// pairSide is the per-end runtime state of a PairRelayer. Work is grouped
// by proof origin: everything queued on side X is proven against X's state
// and submitted to the peer chain, gated on the client-of-X the peer runs.
type pairSide struct {
	c    PairSideConfig
	peer *pairSide

	cursor int // EventsSince cursor on this chain

	// outPackets are packets sourced on this side awaiting delivery to the
	// peer; outAcks are acks written on this side (for peer-sourced
	// packets) awaiting submission on the peer.
	outPackets []cpWork
	outAcks    []ackWork

	// pushed is the highest height of this chain installed in the peer's
	// client of it; syncedTo the highest update already enqueued.
	pushed   uint64
	syncedTo uint64

	// ops serialises submissions to the peer's front-end: a RecvPacket
	// must never overtake the UpdateClient it depends on.
	ops    []*cpOp
	opBusy bool
}

// PairRelayer relays one mesh link between two Cosmos-style chains over
// the simulated network: client updates in both directions, packet
// delivery with membership proofs, ack relaying, and timeout proofs. It is
// the cosmos↔cosmos sibling of Relayer — no host-transaction chunking, but
// the same strict per-route ownership a mesh needs when many relayers
// share the chains.
type PairRelayer struct {
	cfg   PairConfig
	ns    string
	sched *sim.Scheduler
	rng   *rand.Rand

	a, b *pairSide

	net   *netsim.Network
	ep    *netsim.Endpoint
	retry netsim.RetryPolicy

	// traces tracks link-sourced packets in send order (a slice, not a
	// map: timeout scans must iterate deterministically).
	traces map[string]*pairTrace
	order  []string

	tel          *telemetry.Telemetry
	mUpdates     *telemetry.Counter
	mDelivered   *telemetry.Counter
	mAcks        *telemetry.Counter
	mTimeouts    *telemetry.Counter
	mRecvFailed  *telemetry.Counter
	mHopLatency  *telemetry.Histogram
	mNetRetries  *telemetry.Counter
	mNetDead     *telemetry.Counter
	mNetAttempts *telemetry.Histogram
	mLostRace    *telemetry.Counter
	mFeesClaimed *telemetry.Counter

	// healthLat is the EWMA hop-delivery latency behind Health().
	healthLat  float64
	healthSeen bool

	// feeEscrows are the fee middlewares this relayer earns from.
	feeEscrows []FeeClaimer
}

// PairOption configures a PairRelayer.
type PairOption func(*PairRelayer)

// WithPairTelemetry wires the relayer's metrics into t.
func WithPairTelemetry(t *telemetry.Telemetry) PairOption {
	return func(r *PairRelayer) { r.tel = t }
}

// NewPair creates a pair relayer on net (required: mesh links always run
// over the simulated network; a zero-value netsim config is lossless).
func NewPair(cfg PairConfig, sched *sim.Scheduler, net *netsim.Network, opts ...PairOption) *PairRelayer {
	if cfg.Latency == nil {
		cfg.Latency = sim.Uniform{Min: 300 * time.Millisecond, Max: 1500 * time.Millisecond}
	}
	r := &PairRelayer{
		cfg:    cfg,
		sched:  sched,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		net:    net,
		retry:  netsim.DefaultRetryPolicy(),
		traces: make(map[string]*pairTrace),
	}
	r.ns = cfg.MetricsNamespace
	if r.ns == "" {
		r.ns = "relayer.link." + cfg.LinkID
	}
	nodeID := cfg.NodeID
	if nodeID == "" {
		nodeID = netsim.LinkRelayerNode(cfg.LinkID)
	}
	r.a = &pairSide{c: cfg.A}
	r.b = &pairSide{c: cfg.B}
	r.a.peer, r.b.peer = r.b, r.a
	for _, o := range opts {
		o(r)
	}
	var reg *telemetry.Registry
	if r.tel != nil {
		reg = r.tel.Metrics
	}
	r.mUpdates = reg.Counter(r.ns + ".client_updates")
	r.mDelivered = reg.Counter(r.ns + ".delivered")
	r.mAcks = reg.Counter(r.ns + ".acks")
	r.mTimeouts = reg.Counter(r.ns + ".timeouts_submitted")
	r.mRecvFailed = reg.Counter(r.ns + ".recv_failed")
	r.mHopLatency = reg.Histogram(r.ns + ".hop.latency_s")
	r.mNetRetries = reg.Counter(r.ns + ".net_retries")
	r.mNetDead = reg.Counter(r.ns + ".net_dead_letters")
	r.mNetAttempts = reg.Histogram(r.ns + ".net_attempts")
	r.mLostRace = reg.Counter(r.ns + ".lost_race")
	r.mFeesClaimed = reg.Counter(r.ns + ".fees_claimed_tokens")
	r.ep = net.Node(nodeID, r.onNetMessage, nil)
	return r
}

// PayeeID is the relayer's identity in fee escrows (ICS-29 payee).
func (r *PairRelayer) PayeeID() string {
	if r.cfg.Payee != "" {
		return r.cfg.Payee
	}
	return "pair:" + r.cfg.LinkID
}

// RegisterFeeClaimer adds a fee escrow this relayer earns from.
func (r *PairRelayer) RegisterFeeClaimer(c FeeClaimer) {
	if c != nil {
		r.feeEscrows = append(r.feeEscrows, c)
	}
}

// ClaimFees sweeps accrued packet fees from every registered escrow and
// returns the total claimed per denom.
func (r *PairRelayer) ClaimFees() map[string]uint64 {
	var total map[string]uint64
	for _, esc := range r.feeEscrows {
		for denom, amt := range esc.Claim(r.PayeeID()) {
			if total == nil {
				total = make(map[string]uint64)
			}
			total[denom] += amt
			r.mFeesClaimed.Add(amt)
		}
	}
	return total
}

// Node is the relayer's address on the simulated network; mesh wiring
// targets it with block notifications and fault profiles.
func (r *PairRelayer) Node() netsim.NodeID { return r.ep.ID() }

func (r *PairRelayer) netObs() netsim.RetryObserver {
	return netsim.RetryObserver{Retries: r.mNetRetries, DeadLetters: r.mNetDead, Attempts: r.mNetAttempts}
}

// onNetMessage consumes block notifications; the sender identifies which
// end produced a block.
func (r *PairRelayer) onNetMessage(from netsim.NodeID, kind string, _ any) {
	if kind != netsim.KindCPBlock {
		return
	}
	switch from {
	case r.a.c.Node:
		r.onBlock(r.a)
	case r.b.c.Node:
		r.onBlock(r.b)
	}
}

// OnBlockA / OnBlockB process a new block on the named end (the direct
// entry points tests and non-netsim drivers use).
func (r *PairRelayer) OnBlockA() { r.onBlock(r.a) }

// OnBlockB is OnBlockA for the B end.
func (r *PairRelayer) OnBlockB() { r.onBlock(r.b) }

// onBlock polls side s's chain events. One scan feeds the side's outbound
// queues: committed packets sourced on the link's route, and acks written
// for peer-sourced packets. Foreign routes (other links on the same
// chain) are ignored — the mesh equivalent of Config.StrictRoutes.
func (r *PairRelayer) onBlock(s *pairSide) {
	events, cursor := s.c.Chain.EventsSince(s.cursor)
	s.cursor = cursor
	for _, ev := range events {
		switch e := ev.Payload.(type) {
		case counterparty.EventPacketsCommitted:
			for _, p := range e.Packets {
				if p.SourcePort != s.c.Port || p.SourceChannel != s.c.Channel {
					continue
				}
				s.outPackets = append(s.outPackets, cpWork{packet: p, height: ev.Height})
				key := traceKey(p)
				r.traces[key] = &pairTrace{packet: p, src: s, sentAt: r.sched.Now()}
				r.order = append(r.order, key)
			}
		case ibc.EventWriteAck:
			p := e.Packet
			if p.DestPort != s.c.Port || p.DestChannel != s.c.Channel {
				continue
			}
			// The ack is in this chain's store now; the next block's root
			// (ev.Height+1) is the first that commits it.
			s.outAcks = append(s.outAcks, ackWork{packet: p, ack: e.Ack, height: ev.Height + 1})
		}
	}
	r.maybeSync(s)
	// A new block on s also makes previously future ack heights provable
	// on the peer-facing queue of this side; nothing to do for the peer
	// side — its own heights did not move.
}

// maybeSync pushes one client update of side s to the peer when queued
// work needs a height the peer's client does not hold, then flushes. Like
// the guest-side scheduler it issues at most one update per (chain,
// height): every queue item provable at that height rides the same update.
func (r *PairRelayer) maybeSync(s *pairSide) {
	target := s.c.Chain.Height()
	if target <= s.syncedTo {
		r.flush(s)
		return
	}
	needed := false
	for _, w := range s.outPackets {
		if w.height > s.pushed && w.height <= target {
			needed = true
			break
		}
	}
	if !needed {
		for _, w := range s.outAcks {
			if w.height > s.pushed && w.height <= target {
				needed = true
				break
			}
		}
	}
	if !needed {
		r.flush(s)
		return
	}
	upd, err := s.c.Chain.UpdateAt(target)
	if err != nil {
		return
	}
	s.syncedTo = target
	r.enqueue(s, netsim.KindUpdateClient,
		netsim.MsgUpdateClient{ClientID: s.peer.c.ClientOfPeer, Header: upd.Marshal()},
		func(_ any, err error) {
			if err != nil {
				return
			}
			r.mUpdates.Inc()
			if target > s.pushed {
				s.pushed = target
			}
			r.flush(s)
		})
}

// requestSync forces a client update of side s to its current height even
// without queued work — timeout proofs need the source's client of the
// destination pulled past the expiry.
func (r *PairRelayer) requestSync(s *pairSide) {
	target := s.c.Chain.Height()
	if target <= s.syncedTo {
		return
	}
	upd, err := s.c.Chain.UpdateAt(target)
	if err != nil {
		return
	}
	s.syncedTo = target
	r.enqueue(s, netsim.KindUpdateClient,
		netsim.MsgUpdateClient{ClientID: s.peer.c.ClientOfPeer, Header: upd.Marshal()},
		func(_ any, err error) {
			if err == nil {
				r.mUpdates.Inc()
				if target > s.pushed {
					s.pushed = target
				}
			}
		})
}

// flush submits side s's provable work to the peer: RecvPacket for
// s-sourced packets, AcknowledgePacket for acks written on s. Items whose
// height the peer's client does not hold yet stay queued.
func (r *PairRelayer) flush(s *pairSide) {
	var laterPackets []cpWork
	for _, w := range s.outPackets {
		if w.height > s.pushed {
			laterPackets = append(laterPackets, w)
			continue
		}
		w := w
		path := ibc.CommitmentPath(w.packet.SourcePort, w.packet.SourceChannel, w.packet.Sequence)
		_, proof, err := s.c.Chain.ProveMembershipAt(s.pushed, path)
		if err != nil {
			laterPackets = append(laterPackets, w)
			continue
		}
		key := traceKey(w.packet)
		r.enqueue(s, netsim.KindRecvPacket,
			netsim.MsgRecvPacket{Packet: w.packet, Proof: proof, ProofHeight: ibc.Height(s.pushed)},
			func(resp any, err error) {
				if err != nil {
					// Application rejection (e.g. expired packet); the
					// timeout scan refunds it. Transport loss retries
					// inside ReliableCall and never lands here.
					r.mRecvFailed.Inc()
					return
				}
				if rr, ok := resp.(netsim.RespRecvPacket); ok && rr.Duplicate {
					// A competing relayer won this packet; mark it
					// delivered so the timeout scan stands down and count
					// the lost race — the winner owns the delivery stats,
					// the ack, and the fee.
					r.mLostRace.Inc()
					if tr, ok := r.traces[key]; ok {
						tr.delivered = true
					}
					return
				}
				r.mDelivered.Inc()
				if tr, ok := r.traces[key]; ok {
					tr.delivered = true
					lat := r.sched.Now().Sub(tr.sentAt).Seconds()
					r.mHopLatency.Observe(lat)
					r.observeHealthLatency(lat)
				}
				// The peer's ack comes back through the peer side's event
				// scan (EventWriteAck) at its next block.
			})
	}
	s.outPackets = laterPackets

	var laterAcks []ackWork
	for _, w := range s.outAcks {
		if w.height > s.pushed {
			laterAcks = append(laterAcks, w)
			continue
		}
		w := w
		path := ibc.AckPath(w.packet.DestPort, w.packet.DestChannel, w.packet.Sequence)
		_, proof, err := s.c.Chain.ProveMembershipAt(s.pushed, path)
		if err != nil {
			laterAcks = append(laterAcks, w)
			continue
		}
		r.enqueue(s, netsim.KindAckPacket,
			netsim.MsgAckPacket{Packet: w.packet, Ack: w.ack, Proof: proof, ProofHeight: ibc.Height(s.pushed)},
			func(_ any, err error) {
				if err == nil {
					r.mAcks.Inc()
					r.clearTrace(traceKey(w.packet))
				}
			})
	}
	s.outAcks = laterAcks
}

// CheckTimeouts scans undelivered link-sourced packets for expiry and
// submits receipt non-membership proofs to the source chain (the same
// duty the guest relayer performs; unordered channels only, like the rest
// of the mesh plane).
func (r *PairRelayer) CheckTimeouts() {
	// Nothing in the scan moves a client or a chain head (submissions are
	// scheduled, not run inline), so each side's view is read once.
	views := map[*pairSide]timeoutView{r.a: newTimeoutView(r.a), r.b: newTimeoutView(r.b)}
	for _, key := range r.order {
		tr, ok := r.traces[key]
		if !ok || tr.delivered || tr.inFlight {
			continue
		}
		p := tr.packet
		src, dst := tr.src, tr.src.peer
		if !src.c.Chain.Handler().HasCommitment(p) {
			r.clearTrace(key)
			continue // acked or already timed out
		}
		if p.TimeoutHeight == 0 && p.TimeoutTimestamp.IsZero() {
			continue
		}
		v := views[src]
		if v.knownErr != nil {
			continue
		}
		if !p.TimedOut(v.known, v.knownTime) {
			// Not provable at the trusted height yet; if the live peer
			// head is past the expiry, pull the client forward for a
			// later scan.
			if v.head != nil && p.TimedOut(ibc.Height(v.head.Height), v.head.Time) {
				r.requestSync(dst)
			}
			continue
		}
		receiptPath := ibc.ReceiptPath(p.DestPort, p.DestChannel, p.Sequence)
		proof, err := dst.c.Chain.ProveNonMembershipAt(uint64(v.known), receiptPath)
		if err != nil {
			continue
		}
		tr.inFlight = true
		// The proof comes from dst, so it rides dst's op stream (whose
		// submissions target the peer = the packet's source chain).
		r.enqueue(dst, netsim.KindTimeoutPacket,
			netsim.MsgTimeoutPacket{Packet: p, Proof: proof, ProofHeight: v.known},
			func(_ any, err error) {
				tr.inFlight = false
				if err == nil {
					r.mTimeouts.Inc()
					r.clearTrace(key)
				}
			})
	}
}

// timeoutView is what a timeout scan reads for packets sourced on one
// side: the peer height (and its time) that side's client of the peer
// trusts, and the peer's live head (nil if unreadable).
type timeoutView struct {
	known     ibc.Height
	knownTime time.Time
	knownErr  error
	head      *tendermint.Header
}

func newTimeoutView(src *pairSide) timeoutView {
	var v timeoutView
	client, err := src.c.Chain.Handler().Client(src.c.ClientOfPeer)
	if err == nil {
		v.known = client.LatestHeight()
		v.knownTime, err = client.ConsensusTime(v.known)
	}
	v.knownErr = err
	peer := src.peer.c.Chain
	if hdr, err := peer.HeaderAt(peer.Height()); err == nil {
		v.head = hdr
	}
	return v
}

// clearTrace drops a settled packet; the order slice compacts lazily on
// the next timeout scan.
func (r *PairRelayer) clearTrace(key string) {
	if _, ok := r.traces[key]; !ok {
		return
	}
	delete(r.traces, key)
	keep := r.order[:0]
	for _, k := range r.order {
		if _, ok := r.traces[k]; ok {
			keep = append(keep, k)
		}
	}
	r.order = keep
}

// enqueue appends one operation to side s's FIFO (submissions land on
// s.peer's chain) and starts the pump if idle. Each dispatch waits a
// sampled submission latency, so the queue drains at deployment pace.
func (r *PairRelayer) enqueue(s *pairSide, kind string, payload any, onDone func(resp any, err error)) {
	s.ops = append(s.ops, &cpOp{kind: kind, payload: payload, onDone: onDone})
	if !s.opBusy {
		s.opBusy = true
		r.pump(s)
	}
}

// pump issues side s's head operation and advances on completion.
func (r *PairRelayer) pump(s *pairSide) {
	if len(s.ops) == 0 {
		s.opBusy = false
		return
	}
	op := s.ops[0]
	r.sched.After(r.cfg.Latency.Sample(r.rng), func() {
		r.ep.ReliableCall(s.peer.c.Node, op.kind, op.payload, r.retry, r.netObs(), func(resp any, err error) {
			s.ops = s.ops[1:]
			op.onDone(resp, err)
			r.pump(s)
		})
	})
}
