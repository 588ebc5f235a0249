// Package relayer implements the IBC relayer between the guest blockchain
// and the counterparty chain (Alg. 2 plus the standard relayer duties the
// paper reuses existing implementations for): light-client updates in both
// directions, packet delivery with membership proofs, acknowledgement
// relaying, and timeout proofs.
//
// Towards the guest blockchain every operation becomes a sequence of
// size-limited host transactions, paced like a real RPC submitter — this
// is what produces the ~36.5-transaction client updates and their 25-60 s
// latency (Figs. 4-5) and the 4-5 transaction ReceivePacket flow (§V-A).
//
// The relayer serves any number of channels multiplexed over the one
// connection: per-channel work queues live in shards (shard.go), paced
// independently, while client updates are issued once per (chain, height)
// by a shared scheduler (updates.go) and flush every shard's provable
// work — the amortisation that keeps update cost flat as channels grow.
package relayer

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/counterparty"
	"repro/internal/cryptoutil"
	"repro/internal/guest"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/lightclient/tendermint"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Config parameterises the relayer.
type Config struct {
	// TxGap is the pacing between consecutive host transaction
	// submissions (RPC + confirmation pacing of the real deployment).
	TxGap sim.Dist
	// CPLatency is the latency of actions on the counterparty side
	// (submission there is not the bottleneck the paper measures).
	CPLatency sim.Dist
	// Seed makes pacing deterministic.
	Seed int64
	// GuestClientID is the counterparty client registered on the guest
	// chain; GuestOnCPClientID is the guest client on the counterparty.
	GuestClientID     ibc.ClientID
	GuestOnCPClientID ibc.ClientID
	// Channels lists every (port, channel) route the relayer serves.
	// When empty, the legacy single-channel fields below define one.
	Channels []ChannelRoute
	// MetricsNamespace prefixes every metric and event key this relayer
	// writes (default "relayer"). Mesh deployments run one relayer per
	// link in a single process and give each a distinct per-link prefix
	// ("relayer.link.<a>-<b>") so no two links ever share a key.
	MetricsNamespace string
	// NodeID is this relayer's address on the simulated network (default
	// netsim.RelayerNode); per-link relayers register as
	// netsim.LinkRelayerNode(id) so per-link fault profiles apply.
	NodeID netsim.NodeID
	// ChainNodeID is the counterparty RPC front-end this relayer calls
	// (default netsim.CPNode); mesh chains expose netsim.ChainNode(name).
	ChainNodeID netsim.NodeID
	// KeyName derives the relayer's fee-paying key (default "relayer").
	// Per-link relayers need distinct identities on the shared host.
	KeyName string
	// StrictRoutes restricts the relayer to packets whose (port, channel)
	// is in Channels. The default (false) keeps the legacy fallback —
	// stray packets ride shard 0 — which is right when one relayer serves
	// the whole deployment; a mesh runs several relayers against the same
	// guest chain, and each must ignore the others' traffic.
	StrictRoutes bool
	// Legacy single-channel fields (filled by Bootstrap); still honoured
	// when Channels is empty.
	GuestPort    ibc.PortID
	GuestChannel ibc.ChannelID
	CPPort       ibc.PortID
	CPChannel    ibc.ChannelID
}

// routes resolves the channel topology: explicit Channels when given,
// otherwise the one route described by the legacy fields.
func (c Config) routes() []ChannelRoute {
	if len(c.Channels) > 0 {
		return c.Channels
	}
	return []ChannelRoute{{
		GuestPort:    c.GuestPort,
		GuestChannel: c.GuestChannel,
		CPPort:       c.CPPort,
		CPChannel:    c.CPChannel,
	}}
}

// DefaultConfig returns deployment-like pacing.
func DefaultConfig() Config {
	return Config{
		// Per-transaction pacing: ~0.5 s typical RPC/confirmation gap
		// with occasional multi-second stalls (congestion, retries) —
		// together with the ~36-tx updates this yields Fig. 4's
		// 50% < 25 s / 96% < 60 s shape.
		TxGap: sim.Mixture{
			Weights: []float64{0.975, 0.025},
			Components: []sim.Dist{
				sim.LogNormal{Mu: -1.05, Sigma: 0.55, Shift: 120 * time.Millisecond, Cap: 10 * time.Second},
				sim.Uniform{Min: 2 * time.Second, Max: 9 * time.Second},
			},
		},
		CPLatency: sim.Uniform{Min: 300 * time.Millisecond, Max: 1500 * time.Millisecond},
		Seed:      42,
	}
}

// UpdateRecord captures one chunked light-client update on the host (the
// Fig. 4 / Fig. 5 sample unit).
type UpdateRecord struct {
	Height ibc.Height
	Txs    int
	Bytes  int
	Sigs   int
	Cost   host.Lamports
	// Latency is first-tx landing to last-tx landing (Fig. 4's metric).
	Latency time.Duration
}

// RecvRecord captures one ReceivePacket flow on the host (§V-A: 4-5 txs).
type RecvRecord struct {
	Txs  int
	Cost host.Lamports
}

// PacketTrace tracks one guest-sent packet end to end (Fig. 2 uses the
// contract-side part; the trace adds relayer-side milestones).
type PacketTrace struct {
	Packet      *ibc.Packet
	SentAt      time.Time
	FinalisedAt time.Time
	DeliveredAt time.Time
	AckedAt     time.Time
}

// Relayer connects one guest chain and one counterparty, serving every
// channel in Config.Channels (or the legacy single route).
type Relayer struct {
	cfg Config
	// ns is the resolved metrics namespace; nodeID/chainNode the resolved
	// netsim addresses (Config defaults applied).
	ns        string
	nodeID    netsim.NodeID
	chainNode netsim.NodeID

	hostChain *host.Chain
	contract  *guest.Contract
	cp        *counterparty.Chain
	sched     *sim.Scheduler
	rng       *rand.Rand

	key     *cryptoutil.PrivKey
	builder *guest.TxBuilder

	cpCursor int

	// root is the pacer shared by the client-update scheduler and shard
	// 0; queuedJobs aggregates job-queue depth across all pacers.
	root       *pacer
	queuedJobs int64

	// shards hold the per-channel work queues; byGuest/byCP index them
	// by each side's (port, channel).
	shards  []*shard
	byGuest map[chanKey]*shard
	byCP    map[chanKey]*shard

	// updates is the shared client-update scheduler (one UpdateClient
	// per (chain, height), flushing every shard).
	updates updateScheduler

	// Transport (nil = direct in-process calls, the pre-netsim behaviour
	// unit tests rely on). With a transport, host submissions and
	// counterparty handler calls become reliable netsim calls and block
	// notifications arrive as wire messages with cursor catch-up.
	net        *netsim.Network
	ep         *netsim.Endpoint
	retry      netsim.RetryPolicy
	hostCursor host.Slot
	// cpQueue serialises counterparty operations: reliable retries must
	// not let a RecvPacket overtake the UpdateClient it depends on.
	cpQueue []*cpOp
	cpBusy  bool

	// cpHeaderQueue serialises guest→cp header updates in finalisation
	// (= height) order. With pipelined guest blocks a quorum cascade
	// finalises several entries at once; racing their updates over
	// independently sampled latencies would let a later height land
	// first, making the earlier ones stale at the counterparty client
	// and silently stranding their packets.
	cpHeaderQueue []*guest.BlockEntry
	cpHeaderBusy  bool
	// cpPushed is the highest guest height whose consensus state is known
	// to be installed on the counterparty client — by the header pump or
	// by a prune fall-forward in proveGuestMembership. Deliveries prove at
	// least at this height: when a fall-forward advances the client past a
	// queued header, that header's own height will never gain a consensus
	// state, so proofs at it would be unverifiable.
	cpPushed uint64

	// Stats. The record slices are the pre-telemetry measurement path and
	// stay authoritative for determinism checks; the telemetry histograms
	// observe the exact same values.
	Updates     []UpdateRecord
	Recvs       []RecvRecord
	Traces      map[string]*PacketTrace
	TotalFees   host.Lamports
	TimeoutsRun int

	// Telemetry (all nil-safe no-ops unless WithTelemetry was given).
	tel            *telemetry.Telemetry
	tracer         *telemetry.Tracer
	mUpdLatency    *telemetry.Histogram
	mUpdTxs        *telemetry.Histogram
	mUpdCost       *telemetry.Histogram
	mUpdSigs       *telemetry.Histogram
	mRecvTxs       *telemetry.Histogram
	mRecvCost      *telemetry.Histogram
	mJobLatency    *telemetry.Histogram
	mQueueDepth    *telemetry.Gauge
	mClientUpdates *telemetry.Counter
	mTimeouts      *telemetry.Counter
	mSnapRetries   *telemetry.Counter
	mNetRetries    *telemetry.Counter
	mNetDead       *telemetry.Counter
	mNetAttempts   *telemetry.Histogram
	mFeesClaimed   *telemetry.Counter
	mLostRace      *telemetry.Counter

	// healthLat is the EWMA delivery latency (seconds) behind Health();
	// healthSeen marks the first observation.
	healthLat  float64
	healthSeen bool

	// feeEscrows are the fee middlewares this relayer earns from
	// (registered by the deployment wiring); ClaimFees sweeps them.
	feeEscrows []FeeClaimer
}

// FeeClaimer is a fee escrow the relayer can claim accrued packet fees
// from, keyed by the relayer's payee identity (implemented by
// middleware.Fees).
type FeeClaimer interface {
	Claim(payee string) map[string]uint64
}

// cpOp is one queued counterparty operation.
type cpOp struct {
	kind    string
	payload any
	onDone  func(resp any, err error)
}

type cpWork struct {
	packet *ibc.Packet
	height uint64 // cp height whose root commits the packet
}

type ackWork struct {
	packet *ibc.Packet
	ack    []byte
	height uint64 // cp height whose root commits the ack
}

type cpAckBack struct {
	packet *ibc.Packet
	ack    []byte
}

// Option configures a Relayer.
type Option func(*Relayer)

// WithTelemetry wires the relayer's histograms, queue gauge, and per-packet
// lifecycle tracer into t.
func WithTelemetry(t *telemetry.Telemetry) Option {
	return func(r *Relayer) { r.tel = t }
}

// WithTransport routes the relayer's traffic through the simulated
// network: it registers the relayer node, turns host submissions and
// counterparty handler operations into reliable (retry-with-backoff)
// calls, and switches host-block processing to cursor-based pulls so a
// dropped notification only delays work instead of losing it.
func WithTransport(net *netsim.Network) Option {
	return func(r *Relayer) { r.net = net }
}

// New creates a relayer; its host account must be funded for fees.
func New(cfg Config, hostChain *host.Chain, contract *guest.Contract, cp *counterparty.Chain, sched *sim.Scheduler, opts ...Option) *Relayer {
	keyName := cfg.KeyName
	if keyName == "" {
		keyName = "relayer"
	}
	key := cryptoutil.GenerateKey(keyName)
	r := &Relayer{
		cfg:       cfg,
		hostChain: hostChain,
		contract:  contract,
		cp:        cp,
		sched:     sched,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		key:       key,
		builder:   guest.NewTxBuilderForProfile(contract, key.Public(), hostChain.Profile()),
		Traces:    make(map[string]*PacketTrace),
	}
	r.ns = cfg.MetricsNamespace
	if r.ns == "" {
		r.ns = "relayer"
	}
	r.nodeID = cfg.NodeID
	if r.nodeID == "" {
		r.nodeID = netsim.RelayerNode
	}
	r.chainNode = cfg.ChainNodeID
	if r.chainNode == "" {
		r.chainNode = netsim.CPNode
	}
	r.root = &pacer{r: r, rng: r.rng}
	r.updates = updateScheduler{r: r}
	for _, o := range opts {
		o(r)
	}
	var reg *telemetry.Registry
	if r.tel != nil {
		reg = r.tel.Metrics
		r.tracer = r.tel.Tracer
	}
	r.mUpdLatency = reg.Histogram(r.ns + ".update.latency_s")
	r.mUpdTxs = reg.Histogram(r.ns + ".update.txs")
	r.mUpdCost = reg.Histogram(r.ns + ".update.cost_cents")
	r.mUpdSigs = reg.Histogram(r.ns + ".update.sigs")
	r.mRecvTxs = reg.Histogram(r.ns + ".recv.txs")
	r.mRecvCost = reg.Histogram(r.ns + ".recv.cost_cents")
	r.mJobLatency = reg.Histogram(r.ns + ".job.latency_s")
	r.mQueueDepth = reg.Gauge(r.ns + ".queue_depth")
	r.mClientUpdates = reg.Counter(r.ns + ".client_updates")
	r.mTimeouts = reg.Counter(r.ns + ".timeouts_submitted")
	r.mSnapRetries = reg.Counter(r.ns + ".snapshot_pruned_retries")
	r.mFeesClaimed = reg.Counter(r.ns + ".fees_claimed_tokens")
	r.byGuest = make(map[chanKey]*shard)
	r.byCP = make(map[chanKey]*shard)
	for i, route := range cfg.routes() {
		s := newShard(r, reg, route, i)
		r.shards = append(r.shards, s)
		r.byGuest[chanKey{route.GuestPort, route.GuestChannel}] = s
		r.byCP[chanKey{route.CPPort, route.CPChannel}] = s
	}
	if r.net != nil {
		r.ep = r.net.Node(r.nodeID, r.onNetMessage, nil)
		// Start the block cursor at the current slot: bootstrap blocks
		// predate the daemon loop and were already handled.
		r.hostCursor = hostChain.Slot()
		r.retry = netsim.DefaultRetryPolicy()
		r.mNetRetries = reg.Counter(r.ns + ".net_retries")
		r.mNetDead = reg.Counter(r.ns + ".net_dead_letters")
		r.mNetAttempts = reg.Histogram(r.ns + ".net_attempts")
		// Races only happen over the transport: a competing relayer's
		// duplicate delivery surfaces as RespRecvPacket.Duplicate.
		r.mLostRace = reg.Counter(r.ns + ".lost_race")
	}
	return r
}

// ownsGuest reports whether this relayer serves the guest-side route. In
// strict mode unknown routes are foreign traffic (another link's relayer
// serves them); otherwise every route maps to a shard via the fallback.
func (r *Relayer) ownsGuest(port ibc.PortID, channel ibc.ChannelID) bool {
	if !r.cfg.StrictRoutes {
		return true
	}
	_, ok := r.byGuest[chanKey{port, channel}]
	return ok
}

// ownsCP is ownsGuest for counterparty-side routes.
func (r *Relayer) ownsCP(port ibc.PortID, channel ibc.ChannelID) bool {
	if !r.cfg.StrictRoutes {
		return true
	}
	_, ok := r.byCP[chanKey{port, channel}]
	return ok
}

// shardForGuest resolves the shard serving a guest-side (port, channel);
// unknown routes fall back to shard 0 so stray packets are still served.
func (r *Relayer) shardForGuest(port ibc.PortID, channel ibc.ChannelID) *shard {
	if s, ok := r.byGuest[chanKey{port, channel}]; ok {
		return s
	}
	return r.shards[0]
}

// shardForCP resolves the shard serving a counterparty-side (port, channel).
func (r *Relayer) shardForCP(port ibc.PortID, channel ibc.ChannelID) *shard {
	if s, ok := r.byCP[chanKey{port, channel}]; ok {
		return s
	}
	return r.shards[0]
}

// netObs bundles the relayer's retry accounting.
func (r *Relayer) netObs() netsim.RetryObserver {
	return netsim.RetryObserver{Retries: r.mNetRetries, DeadLetters: r.mNetDead, Attempts: r.mNetAttempts}
}

// onNetMessage consumes wire notifications addressed to the relayer.
func (r *Relayer) onNetMessage(_ netsim.NodeID, kind string, payload any) {
	switch kind {
	case netsim.KindHostBlock:
		// Cursor pull: the notification is just a wake-up. Every retained
		// block is consumed exactly once even when notifications drop.
		for _, b := range r.hostChain.BlocksSince(r.hostCursor) {
			r.hostCursor = b.Slot
			r.OnHostBlock(b)
		}
	case netsim.KindCPBlock:
		if m, ok := payload.(netsim.MsgCPBlock); ok {
			r.OnCPBlock(m.Height)
		}
	}
}

// submitHost submits one host transaction — directly without a
// transport, or as a reliable call that retries until the host
// acknowledges (the chain's replay protection makes retries idempotent).
// done fires exactly once with the submission outcome.
func (r *Relayer) submitHost(tx *host.Transaction, done func(error)) {
	if r.ep == nil {
		done(r.hostChain.Submit(tx))
		return
	}
	r.ep.ReliableCall(netsim.HostNode, netsim.KindSubmitTx, netsim.MsgSubmitTx{Tx: tx},
		r.retry, r.netObs(), func(_ any, err error) { done(err) })
}

// --- serial counterparty operation queue ---

// cpEnqueue appends one counterparty operation to the FIFO and starts the
// pump if idle. On the lossless fast path the whole queue drains
// synchronously before this returns.
func (r *Relayer) cpEnqueue(kind string, payload any, onDone func(resp any, err error)) {
	r.cpQueue = append(r.cpQueue, &cpOp{kind: kind, payload: payload, onDone: onDone})
	if !r.cpBusy {
		r.cpBusy = true
		r.cpPump()
	}
}

// cpPump issues the head operation and advances on its completion.
func (r *Relayer) cpPump() {
	if len(r.cpQueue) == 0 {
		r.cpBusy = false
		return
	}
	op := r.cpQueue[0]
	r.ep.ReliableCall(r.chainNode, op.kind, op.payload, r.retry, r.netObs(), func(resp any, err error) {
		r.cpQueue = r.cpQueue[1:]
		op.onDone(resp, err)
		r.cpPump()
	})
}

// cpPushHeader sends a guest header to the counterparty's client and
// records the height on success, so deliveries never prove below what the
// client is known to hold. Every guest→cp header push must go through
// here: out-of-band pushes (ack relaying, prune fall-forward) can advance
// the client past heights still queued in the header pump, and those
// heights' consensus states then never install.
func (r *Relayer) cpPushHeader(height uint64, header []byte, onDone func(error)) {
	r.cpUpdateClient(header, func(err error) {
		if err == nil && height > r.cpPushed {
			r.cpPushed = height
		}
		onDone(err)
	})
}

// cpUpdateClient pushes a guest header to the counterparty's client.
func (r *Relayer) cpUpdateClient(header []byte, onDone func(error)) {
	if r.ep == nil {
		onDone(r.cp.Handler().UpdateClient(r.cfg.GuestOnCPClientID, header))
		return
	}
	r.cpEnqueue(netsim.KindUpdateClient,
		netsim.MsgUpdateClient{ClientID: r.cfg.GuestOnCPClientID, Header: header},
		func(_ any, err error) { onDone(err) })
}

// cpRecvPacket delivers a guest-sent packet on the counterparty; onDone
// receives the written ack, the first cp height whose root commits it,
// and whether the delivery was a replay (a competing relayer or a retry
// got there first — the front-end reports success with the recorded ack
// and Duplicate set).
func (r *Relayer) cpRecvPacket(p *ibc.Packet, proof []byte, provedAt uint64, onDone func(ack []byte, provableAt uint64, duplicate bool, err error)) {
	if r.ep == nil {
		ack, err := r.cp.Handler().RecvPacket(p, proof, ibc.Height(provedAt))
		onDone(ack, r.cp.Height()+1, false, err)
		return
	}
	r.cpEnqueue(netsim.KindRecvPacket,
		netsim.MsgRecvPacket{Packet: p, Proof: proof, ProofHeight: ibc.Height(provedAt)},
		func(resp any, err error) {
			if err != nil {
				onDone(nil, 0, false, err)
				return
			}
			rr, ok := resp.(netsim.RespRecvPacket)
			if !ok {
				onDone(nil, 0, false, fmt.Errorf("relayer: unexpected recv response %T", resp))
				return
			}
			onDone(rr.Ack, rr.ProvableAt, rr.Duplicate, nil)
		})
}

// cpAckPacket relays an ack for a cp-sent packet back to the counterparty.
func (r *Relayer) cpAckPacket(p *ibc.Packet, ack, proof []byte, provedAt uint64, onDone func(error)) {
	if r.ep == nil {
		onDone(r.cp.Handler().AcknowledgePacket(p, ack, proof, ibc.Height(provedAt)))
		return
	}
	r.cpEnqueue(netsim.KindAckPacket,
		netsim.MsgAckPacket{Packet: p, Ack: ack, Proof: proof, ProofHeight: ibc.Height(provedAt)},
		func(_ any, err error) { onDone(err) })
}

// Key returns the relayer's fee-paying key.
func (r *Relayer) Key() *cryptoutil.PrivKey { return r.key }

// PayeeID is the relayer's identity in fee escrows (ICS-29 payee): the
// string form of its public key, the same identity its host transactions
// are signed with.
func (r *Relayer) PayeeID() string { return r.key.Public().String() }

// RegisterFeeClaimer adds a fee escrow this relayer earns from. The
// deployment wiring registers the fee middleware of every stack whose
// packets this relayer delivers, after pointing the middleware's payee at
// PayeeID.
func (r *Relayer) RegisterFeeClaimer(c FeeClaimer) {
	if c != nil {
		r.feeEscrows = append(r.feeEscrows, c)
	}
}

// ClaimFees sweeps accrued packet fees from every registered escrow into
// the relayer's bank balance and returns the total claimed per denom.
// Scheduled periodically by the deployment (and once more at drain).
func (r *Relayer) ClaimFees() map[string]uint64 {
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

// traceKey builds the packet's trace identifier. It is called for every
// packet event the relayer scans (several times per packet lifecycle), so
// it assembles the key directly instead of going through fmt, which costs
// one allocation instead of four.
func traceKey(p *ibc.Packet) string {
	b := make([]byte, 0, len(p.SourcePort)+len(p.SourceChannel)+22)
	b = append(b, p.SourcePort...)
	b = append(b, '/')
	b = append(b, p.SourceChannel...)
	b = append(b, '/')
	b = strconv.AppendUint(b, p.Sequence, 10)
	return string(b)
}

// --- event polling (driven once per host slot by the runner) ---

// OnHostBlock processes new host blocks' events: one scan feeds every
// shard's work queues.
func (r *Relayer) OnHostBlock(b *host.Block) {
	for _, ev := range b.Events {
		switch e := ev.Payload.(type) {
		case guest.EventFinalisedBlock:
			r.onGuestFinalised(e.Entry)
			r.RelayGuestAcksToCP(e.Entry)
		case guest.EventPacketDelivered:
			// A cp->guest packet was delivered on the guest; its ack needs
			// to ride a finalised guest block back to the cp. Dest is the
			// guest side of the route.
			p := e.Packet
			if !r.ownsGuest(p.DestPort, p.DestChannel) {
				continue
			}
			s := r.shardForGuest(p.DestPort, p.DestChannel)
			s.ackBacklog = append(s.ackBacklog, cpAckBack{packet: p, ack: e.Ack})
		case ibc.EventSendPacket:
			p := e.Packet
			if !r.ownsGuest(p.SourcePort, p.SourceChannel) {
				continue
			}
			r.Traces[traceKey(p)] = &PacketTrace{Packet: p, SentAt: ev.Time}
			// Send and commit coincide on the guest: the commitment is
			// written in the same host transaction as SendPacket.
			r.tracer.Mark(traceKey(p), telemetry.StageSend, ev.Time)
			r.tracer.Mark(traceKey(p), telemetry.StageCommit, ev.Time)
		}
	}
}

// OnCPBlock processes a new counterparty block: one event scan routes
// each committed packet to its shard's inbound queue.
func (r *Relayer) OnCPBlock(_ uint64) {
	events, cursor := r.cp.EventsSince(r.cpCursor)
	r.cpCursor = cursor
	for _, ev := range events {
		pc, ok := ev.Payload.(counterparty.EventPacketsCommitted)
		if !ok {
			continue
		}
		for _, p := range pc.Packets {
			if !r.ownsCP(p.SourcePort, p.SourceChannel) {
				continue
			}
			s := r.shardForCP(p.SourcePort, p.SourceChannel)
			s.inbound = append(s.inbound, cpWork{packet: p, height: ev.Height})
		}
	}
	// Acks for guest-sent packets become provable once the cp commits
	// them; drain what the current height covers.
	r.updates.maybeUpdate()
}

// --- guest -> counterparty direction ---

// onGuestFinalised handles a finalised guest block: forward it to the
// counterparty light client if it carries packets or rotates the epoch
// (Alg. 2), then deliver its packets with proofs. One header update
// covers every channel's packets in the block — guest→cp updates are
// amortised per (chain, height) exactly like the guest-side scheduler.
func (r *Relayer) onGuestFinalised(entry *guest.BlockEntry) {
	owned := 0
	for _, p := range entry.Packets {
		if !r.ownsGuest(p.SourcePort, p.SourceChannel) {
			continue
		}
		owned++
		if tr, ok := r.Traces[traceKey(p)]; ok {
			tr.FinalisedAt = entry.FinalisedAt
		}
		r.tracer.Mark(traceKey(p), telemetry.StageFinalise, entry.FinalisedAt)
		r.tracer.Mark(traceKey(p), telemetry.StagePickup, r.sched.Now())
	}
	// Epoch rotations gate every client of the guest chain: push the
	// header even when the block carries no packets this relayer serves.
	if owned == 0 && entry.Block.NextEpoch == nil {
		return
	}
	r.cpHeaderQueue = append(r.cpHeaderQueue, entry)
	r.pumpCPHeaders()
}

// pumpCPHeaders dispatches at most one guest→cp header update at a time,
// in queue order. Busy covers only the UpdateClient round-trip; packet
// deliveries unlocked by an update run through the shard pacers and do not
// hold up the next header.
func (r *Relayer) pumpCPHeaders() {
	if r.cpHeaderBusy || len(r.cpHeaderQueue) == 0 {
		return
	}
	entry := r.cpHeaderQueue[0]
	r.cpHeaderQueue = r.cpHeaderQueue[1:]
	height := entry.Block.Height
	st, err := r.contract.State(r.hostChain)
	if err != nil {
		r.pumpCPHeaders()
		return
	}
	if height <= r.cpPushed {
		// A prune fall-forward already advanced the client past this
		// height, so the header would be rejected as stale and its
		// consensus state will never install. Skip the round-trip and
		// prove the packets against the advanced height instead.
		r.deliverGuestEntry(st, entry)
		r.pumpCPHeaders()
		return
	}
	sb := entry.SignedBlock()
	r.cpHeaderBusy = true

	r.sched.After(r.cfg.CPLatency.Sample(r.rng), func() {
		r.cpPushHeader(height, sb.Marshal(), func(err error) {
			r.cpHeaderBusy = false
			defer r.pumpCPHeaders()
			if err != nil {
				return
			}
			r.deliverGuestEntry(st, entry)
		})
	})
}

// deliverGuestEntry relays entry's packets to the counterparty with
// proofs at the newest height the cp client is known to hold — at least
// the entry's own height, higher when a fall-forward advanced the client.
// Packet commitments persist in guest state until acked, so a later root
// still commits them.
func (r *Relayer) deliverGuestEntry(st *guest.State, entry *guest.BlockEntry) {
	proveAt := entry.Block.Height
	if r.cpPushed > proveAt {
		proveAt = r.cpPushed
	}
	for _, p := range entry.Packets {
		p := p
		if !r.ownsGuest(p.SourcePort, p.SourceChannel) {
			continue
		}
		s := r.shardForGuest(p.SourcePort, p.SourceChannel)
		path := ibc.CommitmentPath(p.SourcePort, p.SourceChannel, p.Sequence)
		proof, provedAt, err := r.proveGuestMembership(st, proveAt, path)
		if err != nil {
			continue
		}
		r.cpRecvPacket(p, proof, provedAt, func(ack []byte, provableAt uint64, duplicate bool, err error) {
			if err != nil {
				return
			}
			if tr, ok := r.Traces[traceKey(p)]; ok {
				tr.DeliveredAt = r.sched.Now()
			}
			if duplicate {
				// A competing relayer won this packet: record the loss and
				// stand down — the winner counts the delivery, relays the
				// ack, and claims the fee. DeliveredAt is still marked so
				// the timeout scan doesn't fire a proof for a packet that
				// did arrive.
				r.mLostRace.Inc()
				return
			}
			r.tracer.Mark(traceKey(p), telemetry.StageRecv, r.sched.Now())
			s.cDelivered.Inc()
			// The ack becomes provable at the next cp block.
			s.pendingAcks = append(s.pendingAcks, ackWork{
				packet: p,
				ack:    ack,
				height: provableAt,
			})
		})
	}
}

// proveGuestMembership proves path against the guest block at height,
// recovering from a pruned snapshot by re-proving at the newest finalised
// block whose version is still retained (ErrSnapshotPruned means "retry
// against a newer root", unlike ErrUnknownHeight). When it falls forward it
// also pushes that block to the counterparty's guest client, so the caller
// can submit the proof at the returned height immediately.
func (r *Relayer) proveGuestMembership(st *guest.State, height uint64, path string) (proof []byte, provedAt uint64, err error) {
	_, proof, err = st.ProveMembershipAt(height, path)
	if err == nil {
		return proof, height, nil
	}
	if !errors.Is(err, guest.ErrSnapshotPruned) {
		return nil, 0, err
	}
	latest := st.LatestFinalised()
	if latest == nil || latest.Block.Height <= height {
		return nil, 0, err
	}
	r.mSnapRetries.Inc()
	newHeight := latest.Block.Height
	_, proof, err = st.ProveMembershipAt(newHeight, path)
	if err != nil {
		return nil, 0, err
	}
	// The cp-op queue is FIFO, so this update lands before any recv/ack
	// the caller enqueues with the returned height, and its completion
	// callback runs before that of any update enqueued after it — later
	// pump iterations observe cpPushed before their own callbacks deliver.
	r.cpPushHeader(newHeight, latest.SignedBlock().Marshal(), func(error) {})
	return proof, newHeight, nil
}

// --- counterparty -> guest direction ---

// guestClient returns the tendermint client instance on the guest.
func (r *Relayer) guestClient() (ibc.Client, error) {
	st, err := r.contract.State(r.hostChain)
	if err != nil {
		return nil, err
	}
	return st.Handler.Client(r.cfg.GuestClientID)
}

// RelayGuestAcksToCP forwards acks (for cp-sent packets delivered on the
// guest) back to the counterparty once a finalised guest block commits
// them. Called by the runner on FinalisedBlock.
func (r *Relayer) RelayGuestAcksToCP(entry *guest.BlockEntry) {
	pending := false
	for _, s := range r.shards {
		if len(s.ackBacklog) > 0 {
			pending = true
			break
		}
	}
	if !pending {
		return
	}
	st, err := r.contract.State(r.hostChain)
	if err != nil {
		return
	}
	for _, s := range r.shards {
		s.relayAcksToCP(st, entry)
	}
}

// CheckTimeouts scans traced guest-sent packets for expiry and submits
// timeout proofs (Alg. 2's counterpart duty; exercised by the timeout
// tests and the ablation benches).
func (r *Relayer) CheckTimeouts() {
	st, err := r.contract.State(r.hostChain)
	if err != nil {
		return
	}
	// The side-effect-free field filters run first, so only the few
	// undelivered packets with a timeout and none in flight pay for the
	// commitment lookup.
	type candidate struct {
		key string
		p   *ibc.Packet
		s   *shard
	}
	var due []candidate
	for key, tr := range r.Traces {
		p := tr.Packet
		if !tr.DeliveredAt.IsZero() {
			continue // delivered; ack pending
		}
		if p.TimeoutHeight == 0 && p.TimeoutTimestamp.IsZero() {
			continue // no timeout set
		}
		s := r.shardForGuest(p.SourcePort, p.SourceChannel)
		if s.timeoutInFlight[key] {
			continue
		}
		if !st.Handler.HasCommitment(p) {
			continue // acked or already timed out
		}
		due = append(due, candidate{key, p, s})
	}
	if len(due) == 0 {
		return
	}
	// Map order is random: enqueue in (port, channel, sequence) order so
	// a shard's timeout txs are submitted deterministically.
	sort.Slice(due, func(i, j int) bool {
		a, b := due[i].p, due[j].p
		if a.SourcePort != b.SourcePort {
			return a.SourcePort < b.SourcePort
		}
		if a.SourceChannel != b.SourceChannel {
			return a.SourceChannel < b.SourceChannel
		}
		return a.Sequence < b.Sequence
	})

	// The timeout must have elapsed as observable through the client's
	// own latest consensus state — proofs are anchored at a height the
	// guest's client already trusts. Nothing in the loop moves the
	// client or the counterparty head (submissions are scheduled, not
	// run inline), so both are read once.
	client, err := r.guestClient()
	if err != nil {
		return
	}
	known := client.LatestHeight()
	knownTime, err := client.ConsensusTime(known)
	if err != nil {
		return
	}
	cpHeight := r.cp.Height()
	cpHeader, cpErr := r.cp.HeaderAt(cpHeight)
	for _, c := range due {
		p, s := c.p, c.s
		if !p.TimedOut(known, knownTime) {
			// Not provable yet at the trusted height. If the live
			// counterparty head is already past the timeout, pull the
			// client forward so a later scan can prove it.
			if cpErr == nil && p.TimedOut(ibc.Height(cpHeight), cpHeader.Time) {
				r.updates.requestHeight(cpHeight)
				r.updates.maybeUpdate()
			}
			continue
		}
		receiptPath := ibc.ReceiptPath(p.DestPort, p.DestChannel, p.Sequence)
		proof, err := r.cp.ProveNonMembershipAt(uint64(known), receiptPath)
		if err != nil {
			continue
		}
		txs := r.builder.TimeoutPacketTxs(&guest.TimeoutPayload{
			Packet:      p,
			ProofHeight: known,
			Proof:       proof,
		})
		if s.timeoutInFlight == nil {
			s.timeoutInFlight = make(map[string]bool)
		}
		s.timeoutInFlight[c.key] = true
		r.TimeoutsRun++
		r.mTimeouts.Inc()
		s.cTimeouts.Inc()
		s.pc.enqueue("timeout", txs, func(_, finished time.Time) {
			r.tracer.Mark(c.key, telemetry.StageTimeout, finished)
		})
	}
}

// counterpartyVotePayload rebuilds the digest counterparty validators sign.
func counterpartyVotePayload(headerHash cryptoutil.Hash, ts time.Time) []byte {
	p := tendermint.VotePayload(headerHash, ts)
	return p[:]
}
