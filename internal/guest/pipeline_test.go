package guest

import (
	"errors"
	"testing"
)

// newPipelinedEnv is newEnv with a PipelineDepth override.
func newPipelinedEnv(t *testing.T, validators, depth int) *env {
	t.Helper()
	e := newEnv(t, validators)
	st := e.state()
	st.Params.PipelineDepth = depth
	return e
}

// generate submits a GenerateBlock crank and returns the execution error.
func (e *env) generate() error {
	builder := NewTxBuilder(e.contract, e.payer)
	return e.submitExpectErr(builder.GenerateBlockTx())
}

func TestPipelineDepthOneMatchesLegacyGate(t *testing.T) {
	e := newEnv(t, 3) // depth unset = 1
	e.dirtyState("a")
	if err := e.generate(); err != nil {
		t.Fatal(err)
	}
	// Head unfinalised: a second generate must be refused, as before.
	e.dirtyState("b")
	if err := e.generate(); !errors.Is(err, ErrHeadNotFinalised) {
		t.Fatalf("second generate: err = %v, want ErrHeadNotFinalised", err)
	}
}

func TestPipelineAllowsUnfinalisedTail(t *testing.T) {
	e := newPipelinedEnv(t, 3, 3)
	for i := 0; i < 3; i++ {
		e.dirtyState(string(rune('a' + i)))
		if err := e.generate(); err != nil {
			t.Fatalf("generate %d (tail %d unfinalised): %v", i, i, err)
		}
	}
	st := e.state()
	if h := st.Height(); h != 4 { // genesis + 3
		t.Fatalf("height = %d, want 4", h)
	}
	// Tail is full: the 4th generate is refused.
	e.dirtyState("d")
	if err := e.generate(); !errors.Is(err, ErrHeadNotFinalised) {
		t.Fatalf("generate past depth: err = %v, want ErrHeadNotFinalised", err)
	}
}

func TestPipelineCascadeFinalisesInOrder(t *testing.T) {
	e := newPipelinedEnv(t, 3, 3)
	for i := 0; i < 3; i++ {
		e.dirtyState(string(rune('a' + i)))
		if err := e.generate(); err != nil {
			t.Fatal(err)
		}
	}
	st := e.state()
	// Heights 2,3,4 are unfinalised. Bring heights 3 and 4 to quorum
	// first: they must NOT finalise while their parent (2) is pending.
	signAll := func(height uint64) {
		entry, err := st.Entry(height)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range e.keys {
			builder := NewTxBuilder(e.contract, k.Public())
			e.submit(builder.SignTx(k, entry.Block))
		}
	}
	signAll(3)
	signAll(4)
	st = e.state()
	for _, h := range []uint64{3, 4} {
		entry, _ := st.Entry(h)
		if entry.Finalised {
			t.Fatalf("height %d finalised before its parent", h)
		}
		if entry.SignedStake < entry.Epoch.QuorumStake {
			t.Fatalf("height %d did not reach quorum", h)
		}
	}

	// Collect finalisation events while signing height 2: its quorum must
	// cascade-finalise 3 and 4 in height order within the same vote.
	cursor := e.chain.Slot()
	signAll(2)
	var finalised []uint64
	for _, b := range e.chain.BlocksSince(cursor) {
		for _, ev := range b.Events {
			if fe, ok := ev.Payload.(EventFinalisedBlock); ok {
				finalised = append(finalised, fe.Entry.Block.Height)
			}
		}
	}
	want := []uint64{2, 3, 4}
	if len(finalised) != len(want) {
		t.Fatalf("finalised events = %v, want %v", finalised, want)
	}
	for i := range want {
		if finalised[i] != want[i] {
			t.Fatalf("finalised events = %v, want %v (in height order)", finalised, want)
		}
	}
	st = e.state()
	for _, h := range want {
		entry, _ := st.Entry(h)
		if !entry.Finalised {
			t.Fatalf("height %d not finalised after cascade", h)
		}
	}
	// The tail is clear again: generation proceeds.
	e.dirtyState("e")
	if err := e.generate(); err != nil {
		t.Fatalf("generate after cascade: %v", err)
	}
}

func TestPipelineBlocksOnPendingEpochRotation(t *testing.T) {
	e := newPipelinedEnv(t, 3, 3)
	st := e.state()
	// Force the next block to carry an epoch rotation.
	st.Params.EpochLength = 1
	e.dirtyState("a")
	if err := e.generate(); err != nil {
		t.Fatal(err)
	}
	st = e.state()
	head := st.Head()
	if head.Block.NextEpoch == nil {
		t.Fatal("expected rotation block")
	}
	// Despite depth 3, generation must wait for the rotation block.
	e.dirtyState("b")
	if err := e.generate(); !errors.Is(err, ErrHeadNotFinalised) {
		t.Fatalf("generate past pending rotation: err = %v, want ErrHeadNotFinalised", err)
	}
}

// TestPipelineSignedBlocksStayVerifiable checks that cascade-finalised
// blocks still assemble light-client-verifiable signed blocks.
func TestPipelineSignedBlocksStayVerifiable(t *testing.T) {
	e := newPipelinedEnv(t, 4, 2)
	for i := 0; i < 2; i++ {
		e.dirtyState(string(rune('a' + i)))
		if err := e.generate(); err != nil {
			t.Fatal(err)
		}
	}
	st := e.state()
	for h := uint64(2); h <= 3; h++ {
		entry, _ := st.Entry(h)
		for _, k := range e.keys {
			builder := NewTxBuilder(e.contract, k.Public())
			e.submit(builder.SignTx(k, entry.Block))
		}
	}
	st = e.state()
	for h := uint64(2); h <= 3; h++ {
		entry, _ := st.Entry(h)
		if !entry.Finalised {
			t.Fatalf("height %d not finalised", h)
		}
		sb := entry.SignedBlock()
		if err := sb.VerifyQuorum(entry.Epoch); err != nil {
			t.Fatalf("height %d signed block: %v", h, err)
		}
	}
}
