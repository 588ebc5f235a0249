package relayer

import (
	"fmt"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/fees"
	"repro/internal/guest"
	"repro/internal/host"
	"repro/internal/ibc"
)

// updateScheduler amortises guest-side light-client updates across every
// relayer shard: it computes the highest counterparty height any shard's
// provable work needs, issues at most one chunked UpdateClient towards
// that height at a time, and on completion flushes ALL shards' backlogs
// against the freshly proven height. The update count therefore depends
// on counterparty block cadence and backlog arrival — not on the number
// of channels — which is the amortisation the paper's cost model (§V,
// Tables II-III) relies on when many apps multiplex one connection.
type updateScheduler struct {
	r *Relayer
	// inFlight dedups update jobs; seq labels them.
	inFlight bool
	seq      int
	// wantHeight is a height-only pull request (the timeout scanner asks
	// for the client to advance without queueing a packet). It is
	// cleared on every flush, matching the old nil-packet markers.
	wantHeight uint64
}

// requestHeight records that some shard wants the guest's cp client at
// or above h even though no packet work is queued for it.
func (u *updateScheduler) requestHeight(h uint64) {
	if h > u.wantHeight {
		u.wantHeight = h
	}
}

// maybeUpdate starts a chunked client update when any shard's backlog
// needs a newer cp height on the guest; with nothing above the known
// height it flushes the backlogs immediately.
func (u *updateScheduler) maybeUpdate() {
	if u.inFlight {
		return
	}
	r := u.r
	client, err := r.guestClient()
	if err != nil {
		return
	}
	known := uint64(client.LatestHeight())

	needed := uint64(0)
	for _, s := range r.shards {
		needed = s.backlogMax(known, needed)
	}
	if u.wantHeight > known && u.wantHeight > needed {
		needed = u.wantHeight
	}
	if needed == 0 {
		// Everything provable at the known height already; flush.
		u.flushAll(known)
		return
	}
	// Update to the latest cp height (covers all shards' backlogs with
	// one header: the per-(chain, height) amortisation).
	target := r.cp.Height()
	update, err := r.cp.UpdateAt(target)
	if err != nil {
		return
	}
	headerBytes := update.Marshal()
	sigs := make([]guest.SigBatch, 0, len(update.Commit))
	checks := make([]cryptoutil.VerifyTask, 0, len(update.Commit))
	headerHash := update.Header.Hash()
	for _, cs := range update.Commit {
		payload := counterpartyVotePayload(headerHash, cs.Timestamp)
		sigs = append(sigs, guest.SigBatch{Pub: cs.PubKey, Payload: payload, Sig: cs.Signature})
		checks = append(checks, cryptoutil.VerifyTask{Pub: cs.PubKey, Msg: payload, Sig: cs.Signature})
	}
	// Start the host precompile's checks of the commit now: the pacer
	// spreads the chunk transactions over many slots, and each chunk's
	// execution joins the verdicts instead of verifying on the spot.
	cryptoutil.DefaultBatchVerifier().Prefetch(checks)
	txs := r.builder.UpdateClientTxs(r.cfg.GuestClientID, headerBytes, sigs)

	var cost host.Lamports
	for _, tx := range txs {
		cost += tx.Fee()
	}
	seq := u.seq
	u.seq++
	u.inFlight = true
	r.root.enqueue(fmt.Sprintf("client-update-%d", seq), txs, func(started, finished time.Time) {
		u.inFlight = false
		rec := UpdateRecord{
			Height:  ibc.Height(target),
			Txs:     len(txs),
			Bytes:   len(headerBytes),
			Sigs:    len(sigs),
			Cost:    cost,
			Latency: finished.Sub(started),
		}
		r.Updates = append(r.Updates, rec)
		// Observe the exact values the record path captured, so figures
		// compiled from telemetry snapshots match the legacy series.
		r.mClientUpdates.Inc()
		r.mUpdLatency.Observe(rec.Latency.Seconds())
		r.mUpdTxs.Observe(float64(rec.Txs))
		r.mUpdCost.Observe(fees.Cents(rec.Cost))
		r.mUpdSigs.Observe(float64(rec.Sigs))
		u.flushAll(target)
		// More backlog may have arrived meanwhile.
		u.maybeUpdate()
	})
}

// flushAll drains every shard's backlog provable at or below height and
// clears the height-only pull request.
func (u *updateScheduler) flushAll(height uint64) {
	u.wantHeight = 0
	for _, s := range u.r.shards {
		s.flush(height)
	}
}
