package relayer

import (
	"math/rand"
	"time"

	"repro/internal/host"
)

// job is a paced sequence of host transactions with a completion callback.
type job struct {
	label string
	txs   []*host.Transaction
	// started is when the first transaction was submitted (the paper's
	// Fig. 4 measures first-tx to last-tx execution).
	started time.Time
	onDone  func(started, finished time.Time)
}

// pacer is one paced host-transaction submitter: a FIFO of jobs drained
// one transaction at a time with a TxGap-distributed gap between
// submissions, exactly like a real RPC submitter with confirmation
// pacing. Each relayer shard owns a pacer, so channels submit
// concurrently on the sim scheduler without perturbing each other's
// pacing streams; shard 0 shares the relayer's root pacer (and its RNG)
// with the client-update scheduler, which keeps the single-channel
// topology byte-identical to the pre-shard relayer.
type pacer struct {
	r   *Relayer
	rng *rand.Rand

	// queue is the FIFO of host tx jobs; busy marks the pump running.
	queue []*job
	busy  bool
}

// enqueue schedules a paced submission of txs; onDone fires one slot after
// the last submission (when the commit landed) with the first and last
// transaction landing times.
func (p *pacer) enqueue(label string, txs []*host.Transaction, onDone func(started, finished time.Time)) {
	p.queue = append(p.queue, &job{label: label, txs: txs, onDone: onDone})
	p.r.queueDelta(+1)
	if !p.busy {
		p.busy = true
		p.r.sched.After(0, p.pump)
	}
}

// pump submits the next transaction of the current job.
func (p *pacer) pump() {
	if len(p.queue) == 0 {
		p.busy = false
		return
	}
	r := p.r
	j := p.queue[0]
	if len(j.txs) == 0 {
		// Job finished submitting; fire completion after landing.
		p.queue = p.queue[1:]
		r.queueDelta(-1)
		done := j.onDone
		started := j.started
		slot := r.hostChain.Profile().SlotDuration
		r.sched.After(slot+slot/2, func() {
			finished := r.sched.Now()
			if !started.IsZero() {
				r.mJobLatency.Observe(finished.Sub(started).Seconds())
				r.observeHealthLatency(finished.Sub(started).Seconds())
			}
			if done != nil {
				done(started, finished)
			}
		})
		r.sched.After(0, p.pump)
		return
	}
	if j.started.IsZero() {
		// First transaction lands at the next slot boundary.
		j.started = r.sched.Now().Add(r.hostChain.Profile().SlotDuration / 2)
	}
	tx := j.txs[0]
	j.txs = j.txs[1:]
	r.submitHost(tx, func(err error) {
		if err != nil {
			// Oversized or malformed transactions are a relayer bug (and a
			// dead-lettered submission surfaces here too); drop the job
			// rather than wedge the queue.
			p.queue = p.queue[1:]
			r.queueDelta(-1)
			r.sched.After(0, p.pump)
			return
		}
		// Only a transaction the host accepted is charged.
		r.TotalFees += tx.Fee()
		r.sched.After(r.cfg.TxGap.Sample(p.rng), p.pump)
	})
}

// queueDelta tracks the aggregate job-queue depth across all pacers and
// mirrors it into the relayer.queue_depth gauge (with one pacer the
// series is identical to the old per-queue length samples).
func (r *Relayer) queueDelta(d int64) {
	r.queuedJobs += d
	r.mQueueDepth.Set(r.queuedJobs)
}
