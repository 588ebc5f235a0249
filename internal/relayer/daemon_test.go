package relayer

import (
	"testing"
	"time"

	"repro/internal/guest"
	"repro/internal/host"
	"repro/internal/sim"
)

// daemonHarness drives a Relayer on a scheduler with inline validators:
// each host block's NewBlock events are answered by Sign transactions
// after a fixed delay, and slots tick on the scheduler.
type daemonHarness struct {
	*bootEnv
	sched   *sim.Scheduler
	relayer *Relayer
	res     *Result
}

func newDaemonHarness(t *testing.T, opts ...Option) *daemonHarness {
	t.Helper()
	e := newBootEnv(t)
	b := &Bootstrap{
		HostChain: e.chain, Contract: e.contract, CP: e.cp,
		ValidatorKeys: e.keys, GuestPort: "transfer", CPPort: "transfer",
	}
	res, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler(e.clock.Now())
	// Replace the env's manual clock with the scheduler's so everything
	// shares one timeline.
	h := &daemonHarness{bootEnv: e, sched: sched, res: res}

	cfg := DefaultConfig()
	cfg.GuestClientID = res.GuestClientID
	cfg.GuestOnCPClientID = res.GuestOnCPClientID
	cfg.GuestPort = "transfer"
	cfg.GuestChannel = res.GuestChannel
	cfg.CPPort = "transfer"
	cfg.CPChannel = res.CPChannel
	h.relayer = New(cfg, e.chain, e.contract, e.cp, sched, opts...)
	e.chain.Fund(h.relayer.Key().Public(), 1_000*host.LamportsPerSOL)

	crank := guest.NewTxBuilder(e.contract, e.keys[0].Public())
	// Slot loop: advance the env clock alongside the scheduler, produce a
	// block, dispatch events to the relayer and inline validators.
	signed := map[uint64]bool{}
	sched.Every(host.SlotDuration, func() bool {
		e.clock.Set(sched.Now())
		blk := e.chain.ProduceBlock()
		h.relayer.OnHostBlock(blk)
		st, err := e.contract.State(e.chain)
		if err != nil {
			return true
		}
		head := st.Head()
		if !head.Finalised && !signed[head.Block.Height] {
			signed[head.Block.Height] = true
			block := head.Block
			sched.After(time.Second, func() {
				for _, k := range e.keys {
					vb := guest.NewTxBuilder(e.contract, k.Public())
					_ = e.chain.Submit(vb.SignTx(k, block))
				}
			})
		}
		return true
	})
	// Crank for guest blocks.
	sched.Every(time.Second, func() bool {
		st, err := e.contract.State(e.chain)
		if err != nil {
			return true
		}
		head := st.Head()
		if head.Finalised && head.Block.StateRoot != st.Store.Root() {
			_ = e.chain.Submit(crank.GenerateBlockTx())
		}
		return true
	})
	// Counterparty ticks.
	sched.Every(e.cp.BlockInterval(), func() bool {
		e.clock.Set(sched.Now())
		hh := e.cp.ProduceBlock()
		h.relayer.OnCPBlock(hh.Height)
		return true
	})
	return h
}

func TestDaemonRelaysOutboundPacketAndAck(t *testing.T) {
	h := newDaemonHarness(t)
	st, err := h.contract.State(h.chain)
	if err != nil {
		t.Fatal(err)
	}
	st.BeginDirect(h.clock.Now(), uint64(h.chain.Slot()))

	// Send a packet from the guest via a transaction.
	sender := h.keys[1].Public()
	sb := guest.NewTxBuilder(h.contract, sender)
	tx := sb.SendPacketTx(&guest.SendPacketArgs{
		Sender: sender, Port: "transfer", Channel: h.res.GuestChannel, Data: []byte("daemon-test"),
	})
	if err := h.chain.Submit(tx); err != nil {
		t.Fatal(err)
	}
	h.sched.RunFor(3 * time.Minute)

	if len(h.relayer.Traces) != 1 {
		t.Fatalf("traces = %d", len(h.relayer.Traces))
	}
	for _, tr := range h.relayer.Traces {
		if tr.FinalisedAt.IsZero() {
			t.Fatal("packet never finalised")
		}
		if tr.DeliveredAt.IsZero() {
			t.Fatal("packet never delivered to the counterparty")
		}
		if tr.AckedAt.IsZero() {
			t.Fatal("ack never returned")
		}
		if !tr.SentAt.Before(tr.FinalisedAt) || tr.FinalisedAt.After(tr.DeliveredAt) {
			t.Fatalf("milestones out of order: %+v", tr)
		}
	}
	// The ack flow required a client update on the guest (chunked).
	if len(h.relayer.Updates) == 0 {
		t.Fatal("no client updates")
	}
	if h.relayer.Updates[0].Txs < 2 {
		t.Fatalf("update txs = %d", h.relayer.Updates[0].Txs)
	}
	if h.relayer.TotalFees == 0 {
		t.Fatal("relayer paid nothing")
	}
}

func TestDaemonDeliversInboundPacket(t *testing.T) {
	h := newDaemonHarness(t)
	if _, err := h.cp.SendPacket("transfer", h.res.CPChannel, []byte("inbound"), 0, time.Time{}); err != nil {
		t.Fatal(err)
	}
	h.sched.RunFor(4 * time.Minute)

	if len(h.relayer.Recvs) != 1 {
		t.Fatalf("recvs = %d", len(h.relayer.Recvs))
	}
	if h.relayer.Recvs[0].Txs < 2 {
		t.Fatalf("recv txs = %d", h.relayer.Recvs[0].Txs)
	}
	// The ack went back to the counterparty and cleared its commitment.
	var cleared bool
	for hh := uint64(1); hh <= h.cp.Height(); hh++ {
		for _, p := range h.cp.PacketsAt(hh) {
			if !h.cp.Handler().HasCommitment(p) {
				cleared = true
			}
		}
	}
	if !cleared {
		t.Fatal("counterparty commitment not cleared by relayed ack")
	}
}

func TestDaemonTimeoutFlow(t *testing.T) {
	h := newDaemonHarness(t)
	// Timeout scanning runs on the harness too.
	h.sched.Every(15*time.Second, func() bool {
		h.relayer.CheckTimeouts()
		return true
	})
	sender := h.keys[1].Public()
	sb := guest.NewTxBuilder(h.contract, sender)
	// Stop packet delivery by breaking the counterparty channel? Instead,
	// send with a timeout so short the cp rejects delivery as expired.
	tx := sb.SendPacketTx(&guest.SendPacketArgs{
		Sender: sender, Port: "transfer", Channel: h.res.GuestChannel,
		Data:             []byte("too-late"),
		TimeoutTimestamp: h.sched.Now().Add(2 * time.Second),
	})
	if err := h.chain.Submit(tx); err != nil {
		t.Fatal(err)
	}
	h.sched.RunFor(5 * time.Minute)

	if h.relayer.TimeoutsRun != 1 {
		t.Fatalf("timeouts run = %d, want 1 (deduped)", h.relayer.TimeoutsRun)
	}
	st, err := h.contract.State(h.chain)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range h.relayer.Traces {
		if st.Handler.HasCommitment(tr.Packet) {
			t.Fatal("commitment not cleared by timeout")
		}
		if !tr.DeliveredAt.IsZero() {
			t.Fatal("expired packet was delivered")
		}
	}
}
