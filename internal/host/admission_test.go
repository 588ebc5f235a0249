package host

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/telemetry"
)

func TestMempoolLimitRejects(t *testing.T) {
	c, _, prog, payer := newTestChain(t)
	reg := telemetry.NewRegistry()
	c.SetTelemetry(reg)
	c.SetMempoolLimit(2)

	if free := c.MempoolFree(); free != 2 {
		t.Fatalf("MempoolFree = %d, want 2", free)
	}
	for i := 0; i < 2; i++ {
		tx := call(prog, payer, 1)
		tx.PriorityFee = Lamports(i) // distinct hashes
		if err := c.Submit(tx); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if free := c.MempoolFree(); free != 0 {
		t.Fatalf("MempoolFree = %d, want 0", free)
	}
	over := call(prog, payer, 1)
	over.PriorityFee = 99
	if err := c.Submit(over); !errors.Is(err, ErrMempoolFull) {
		t.Fatalf("overflow submit: err = %v, want ErrMempoolFull", err)
	}
	if got := reg.Counter("host.mempool_rejected").Value(); got != 1 {
		t.Fatalf("mempool_rejected = %d, want 1", got)
	}

	// Draining the mempool frees admission slots again.
	b := c.ProduceBlock()
	if len(b.Results) != 2 {
		t.Fatalf("block results = %d, want 2", len(b.Results))
	}
	if free := c.MempoolFree(); free != 2 {
		t.Fatalf("MempoolFree after block = %d, want 2", free)
	}
	if err := c.Submit(over); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
}

func TestMempoolUnlimitedByDefault(t *testing.T) {
	c, _, prog, payer := newTestChain(t)
	if free := c.MempoolFree(); free != -1 {
		t.Fatalf("MempoolFree = %d, want -1 (unlimited)", free)
	}
	for i := 0; i < 64; i++ {
		tx := call(prog, payer, 1)
		tx.PriorityFee = Lamports(i)
		if err := c.Submit(tx); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
}

func TestDeadlineShedding(t *testing.T) {
	c, clock, prog, payer := newTestChain(t)
	reg := telemetry.NewRegistry()
	c.SetTelemetry(reg)

	var shedLabels []string
	stale := call(prog, payer, 1)
	stale.Deadline = clock.Now().Add(1 * time.Second)
	stale.Label = "stale"
	stale.OnShed = func(tx *Transaction) { shedLabels = append(shedLabels, tx.Label) }
	fresh := call(prog, payer, 1)
	fresh.PriorityFee = 1
	fresh.Label = "fresh"
	fresh.Deadline = clock.Now().Add(1 * time.Hour)
	if err := c.Submit(stale); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(fresh); err != nil {
		t.Fatal(err)
	}

	clock.Advance(2 * time.Second)
	b := c.ProduceBlock()
	if len(b.Results) != 1 || b.Results[0].Label != "fresh" {
		t.Fatalf("block results: %+v", b.Results)
	}
	if got := reg.Counter("host.mempool_shed").Value(); got != 1 {
		t.Fatalf("mempool_shed = %d, want 1", got)
	}
	if len(shedLabels) != 1 || shedLabels[0] != "stale" {
		t.Fatalf("OnShed hooks ran for %v, want [stale]", shedLabels)
	}
	// The shed transaction paid no fee and mutated no state.
	st, err := c.StateOf(prog.account)
	if err != nil {
		t.Fatal(err)
	}
	if st.(*counterState).n != 1 {
		t.Fatalf("counter = %d, want 1 (only fresh tx applied)", st.(*counterState).n)
	}
}

// freshMsgSeq makes every freshMsg distinct within the test process, so
// repeated runs (-count) never find a triple already in the process-wide
// verification cache.
var freshMsgSeq atomic.Int64

func freshMsg(t *testing.T) []byte {
	return []byte(fmt.Sprintf("%s/%d", t.Name(), freshMsgSeq.Add(1)))
}

// signedRequest returns a valid precompile request by a fresh signer.
func signedRequest(t *testing.T, signer string) SigVerify {
	k := cryptoutil.GenerateKey(signer)
	msg := freshMsg(t)
	return SigVerify{Pub: k.Public(), Msg: msg, Sig: k.Sign(msg)}
}

func verifierMisses() uint64 { return cryptoutil.DefaultBatchVerifier().Stats().Misses }

// TestAdmissionPrefetchVerdicts fills a block with signature-bearing
// transactions, mixing valid and invalid signatures. Admission claims
// every check at once; the block then executes in priority order with the
// serial semantics: valid ones execute, invalid ones fail with the
// precompile error.
func TestAdmissionPrefetchVerdicts(t *testing.T) {
	c, _, prog, _ := newTestChain(t)

	const n = 24
	wantErr := make(map[string]bool, n)
	before := verifierMisses()
	for i := 0; i < n; i++ {
		sv := signedRequest(t, string(rune('a'+i))+"-signer")
		bad := i%3 == 0
		if bad {
			sv.Sig[0] ^= 0xff
		}
		fp := cryptoutil.GenerateKey(string(rune('A'+i)) + "-payer").Public()
		c.Fund(fp, LamportsPerSOL)
		tx := call(prog, fp, 1)
		tx.PrecompileSigs = []SigVerify{sv}
		tx.PriorityFee = Lamports(i) // executes in reverse submission order
		tx.Label = string(rune('a' + i))
		wantErr[tx.Label] = bad
		if err := c.Submit(tx); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if got := verifierMisses() - before; got != n {
		t.Fatalf("checks claimed at admission = %d, want %d", got, n)
	}

	b := c.ProduceBlock()
	if len(b.Results) != n {
		t.Fatalf("block results = %d, want %d", len(b.Results), n)
	}
	okCount := 0
	for k, res := range b.Results {
		if want := string(rune('a' + n - 1 - k)); res.Label != want {
			t.Fatalf("result %d is tx %q, want %q (priority order)", k, res.Label, want)
		}
		if wantErr[res.Label] {
			if res.Err == nil {
				t.Fatalf("tx %q: expected precompile failure, got success", res.Label)
			}
		} else {
			if res.Err != nil {
				t.Fatalf("tx %q: unexpected error %v", res.Label, res.Err)
			}
			okCount++
		}
	}
	st, err := c.StateOf(prog.account)
	if err != nil {
		t.Fatal(err)
	}
	if st.(*counterState).n != okCount {
		t.Fatalf("counter = %d, want %d", st.(*counterState).n, okCount)
	}
}

// TestDeferredTxVerifiedOnce pushes a signature-bearing transaction into a
// later block with the compute budget: its checks run once, at admission,
// however many blocks it waits.
func TestDeferredTxVerifiedOnce(t *testing.T) {
	clock := NewManualClock(time.Unix(0, 0))
	c := NewChain(clock)
	payer := cryptoutil.GenerateKey("deferred-payer").Public()
	c.Fund(payer, 100*LamportsPerSOL)
	prog := &burnProgram{id: cryptoutil.GenerateKey("deferred-burn").Public(), units: 1_300_000}
	c.RegisterProgram(prog)

	// ~37 of these fill the 48M block budget; they all outbid the probe.
	for i := 0; i < 60; i++ {
		tx := &Transaction{FeePayer: payer, Instructions: []Instruction{{Program: prog.id}}, PriorityFee: 10}
		if err := c.Submit(tx); err != nil {
			t.Fatal(err)
		}
	}
	before := verifierMisses()
	probe := &Transaction{
		FeePayer:     payer,
		Instructions: []Instruction{{Program: prog.id}},
		PrecompileSigs: []SigVerify{
			signedRequest(t, "deferred-1"), signedRequest(t, "deferred-2"), signedRequest(t, "deferred-3"),
		},
		Label: "probe",
	}
	if err := c.Submit(probe); err != nil {
		t.Fatal(err)
	}

	var landed *TxResult
	for blocks := 0; landed == nil; blocks++ {
		if blocks == 4 {
			t.Fatal("probe never executed")
		}
		b := c.ProduceBlock()
		if blocks == 0 && c.PendingCount() == 0 {
			t.Fatal("first block drained the mempool; the probe was not deferred")
		}
		for i := range b.Results {
			if b.Results[i].Label == "probe" {
				landed = &b.Results[i]
			}
		}
		clock.Advance(SlotDuration)
	}
	if landed.Err != nil {
		t.Fatalf("probe failed: %v", landed.Err)
	}
	if got := verifierMisses() - before; got != uint64(len(probe.PrecompileSigs)) {
		t.Fatalf("verifications = %d, want %d (one per signature)", got, len(probe.PrecompileSigs))
	}
}

// TestRefusedTxStartsNoVerification: a transaction the mempool refuses —
// full, duplicate or over-size — claims no check.
func TestRefusedTxStartsNoVerification(t *testing.T) {
	c, _, prog, payer := newTestChain(t)
	withSig := func(signer string) *Transaction {
		tx := call(prog, payer, 1)
		tx.PrecompileSigs = []SigVerify{signedRequest(t, signer)}
		return tx
	}

	admitted := withSig("refused-admitted")
	if err := c.Submit(admitted); err != nil {
		t.Fatal(err)
	}
	oversize := withSig("refused-oversize")
	oversize.Instructions[0].Data = make([]byte, MaxTransactionSize)
	c.SetMempoolLimit(1)
	full := withSig("refused-full")

	for _, tc := range []struct {
		name string
		tx   *Transaction
		want error
	}{
		{"duplicate", admitted, ErrDuplicateTransaction},
		{"mempool full", full, ErrMempoolFull},
		{"over-size", oversize, ErrTxTooLarge},
	} {
		before := verifierMisses()
		if err := c.Submit(tc.tx); !errors.Is(err, tc.want) {
			t.Fatalf("%s: Submit = %v, want %v", tc.name, err, tc.want)
		}
		if got := verifierMisses() - before; got != 0 {
			t.Fatalf("%s: refused tx claimed %d verifications", tc.name, got)
		}
	}
	// Nothing was left in flight either: checking a refused triple now
	// verifies it here.
	before := verifierMisses()
	sv := full.PrecompileSigs[0]
	if !cryptoutil.DefaultBatchVerifier().Verify(cryptoutil.VerifyTask{Pub: sv.Pub, Msg: sv.Msg, Sig: sv.Sig}) {
		t.Fatal("refused tx's signature is invalid")
	}
	if got := verifierMisses() - before; got != 1 {
		t.Fatalf("refused triple was already claimed (misses %d)", got)
	}
}
