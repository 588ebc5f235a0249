package relayer

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/guest"
	"repro/internal/telemetry"
)

// sendExpiring submits a guest packet on the harness channel whose timeout
// passes before any relayer can deliver it.
func (h *daemonHarness) sendExpiring(t *testing.T, data string) {
	t.Helper()
	sender := h.keys[1].Public()
	tx := guest.NewTxBuilder(h.contract, sender).SendPacketTx(&guest.SendPacketArgs{
		Sender: sender, Port: "transfer", Channel: h.res.GuestChannel,
		Data:             []byte(data),
		TimeoutTimestamp: h.sched.Now().Add(2 * time.Second),
	})
	if err := h.chain.Submit(tx); err != nil {
		t.Fatal(err)
	}
}

// scanTimeouts runs CheckTimeouts on the harness scheduler, as the
// network runner does.
func (h *daemonHarness) scanTimeouts() {
	h.sched.Every(15*time.Second, func() bool {
		h.relayer.CheckTimeouts()
		return true
	})
}

// TestCheckTimeoutsOrderDeterministic sends two packets on one channel
// that expire together, so one scan finds both provable. Relayer.Traces
// is a map; the timeout txs must still land in sequence order every run.
func TestCheckTimeoutsOrderDeterministic(t *testing.T) {
	var first []string
	for run := 0; run < 20; run++ {
		tel := telemetry.New()
		h := newDaemonHarness(t, WithTelemetry(tel))
		h.scanTimeouts()
		h.sendExpiring(t, "first")
		h.sendExpiring(t, "second")
		h.sched.RunFor(5 * time.Minute)

		if h.relayer.TimeoutsRun != 2 {
			t.Fatalf("run %d: timeouts run = %d, want 2", run, h.relayer.TimeoutsRun)
		}
		type landed struct {
			key string
			at  time.Time
		}
		var order []landed
		for key := range h.relayer.Traces {
			tr, _ := tel.Tracer.Trace(key)
			span, ok := tr.Span(telemetry.StageTimeout)
			if !ok {
				t.Fatalf("run %d: %s has no timeout span", run, key)
			}
			order = append(order, landed{key, span.At})
		}
		sort.Slice(order, func(i, j int) bool { return order[i].at.Before(order[j].at) })
		if !order[0].at.Before(order[1].at) {
			t.Fatalf("run %d: both timeouts landed at %v; want one after the other", run, order[0].at)
		}
		got := []string{order[0].key, order[1].key}
		if run == 0 {
			first = got
			a, b := h.relayer.Traces[got[0]].Packet, h.relayer.Traces[got[1]].Packet
			if a.Sequence > b.Sequence {
				t.Fatalf("timeouts landed in order %v; want sequence order", got)
			}
			continue
		}
		if fmt.Sprint(got) != fmt.Sprint(first) {
			t.Fatalf("run %d: timeout order %v, run 0 had %v", run, got, first)
		}
	}
}

// TestCheckTimeoutsSkipsDeliveredPackets expires two packets, then
// records one as delivered with its ack still pending (the relayer's recv
// landed; the ack has not come back). The scan must time out only the
// undelivered one: a delivered packet is settled by its ack.
func TestCheckTimeoutsSkipsDeliveredPackets(t *testing.T) {
	h := newDaemonHarness(t)
	h.sendExpiring(t, "delivered")
	h.sendExpiring(t, "undelivered")
	h.sched.RunFor(30 * time.Second)
	if len(h.relayer.Traces) != 2 {
		t.Fatalf("traces = %d, want 2", len(h.relayer.Traces))
	}
	var delivered, undelivered *PacketTrace
	for _, tr := range h.relayer.Traces {
		if string(tr.Packet.Data) == "delivered" {
			delivered = tr
		} else {
			undelivered = tr
		}
	}
	delivered.DeliveredAt = h.sched.Now()

	h.scanTimeouts()
	h.sched.RunFor(5 * time.Minute)

	if h.relayer.TimeoutsRun != 1 {
		t.Fatalf("timeouts run = %d, want 1", h.relayer.TimeoutsRun)
	}
	st, err := h.contract.State(h.chain)
	if err != nil {
		t.Fatal(err)
	}
	if st.Handler.HasCommitment(undelivered.Packet) {
		t.Fatal("undelivered expired packet was not timed out")
	}
	if !st.Handler.HasCommitment(delivered.Packet) {
		t.Fatal("delivered packet was timed out")
	}
}
