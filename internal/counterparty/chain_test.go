package counterparty

import (
	"testing"
	"time"

	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/lightclient/tendermint"
)

func newTestCP(t *testing.T) (*Chain, *host.ManualClock) {
	t.Helper()
	clock := host.NewManualClock(time.Unix(1_700_000_000, 0).UTC())
	cfg := DefaultConfig()
	cfg.NumValidators = 12
	c, err := New(cfg, clock)
	if err != nil {
		t.Fatal(err)
	}
	return c, clock
}

func TestGenesisAndBlocks(t *testing.T) {
	c, clock := newTestCP(t)
	if c.Height() != 1 {
		t.Fatalf("genesis height = %d", c.Height())
	}
	clock.Advance(6 * time.Second)
	h := c.ProduceBlock()
	if h.Height != 2 || !h.Time.Equal(clock.Now()) {
		t.Fatalf("block: %+v", h)
	}
	if _, err := c.HeaderAt(2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.HeaderAt(3); err == nil {
		t.Fatal("future header served")
	}
}

func TestUpdatesVerifyAgainstOwnClient(t *testing.T) {
	c, clock := newTestCP(t)
	hdr, vals := c.GenesisUpdate()
	client, err := tendermint.NewClient(c.ChainID(), hdr, vals)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		clock.Advance(6 * time.Second)
		c.ProduceBlock()
	}
	u, err := c.UpdateAt(c.Height())
	if err != nil {
		t.Fatal(err)
	}
	if err := client.UpdateVerified(u, clock.Now()); err != nil {
		t.Fatalf("own update rejected: %v", err)
	}
	// Deterministic regeneration: asking again yields the same commit.
	u2, err := c.UpdateAt(c.Height())
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Commit) != len(u2.Commit) {
		t.Fatal("commit regeneration not deterministic")
	}
}

func TestParticipationVariesWithinBounds(t *testing.T) {
	c, clock := newTestCP(t)
	seen := map[int]bool{}
	for i := 0; i < 60; i++ {
		clock.Advance(6 * time.Second)
		c.ProduceBlock()
		u, err := c.UpdateAt(c.Height())
		if err != nil {
			t.Fatal(err)
		}
		n := len(u.Commit)
		if n < 8 || n > 12 {
			t.Fatalf("participation %d of 12 out of bounds", n)
		}
		seen[n] = true
	}
	if len(seen) < 2 {
		t.Fatal("participation never varied (update sizes would be constant)")
	}
}

func TestProofsAgainstSnapshots(t *testing.T) {
	c, clock := newTestCP(t)
	if err := c.Store().Set(ibc.CommitmentPath("transfer", "channel-0", 1), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	clock.Advance(6 * time.Second)
	c.ProduceBlock()
	h1 := c.Height()

	// Mutate after the block: proofs at h1 must still verify against the
	// h1 root.
	if err := c.Store().Set(ibc.CommitmentPath("transfer", "channel-0", 2), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	clock.Advance(6 * time.Second)
	c.ProduceBlock()

	value, proof, err := c.ProveMembershipAt(h1, ibc.CommitmentPath("transfer", "channel-0", 1))
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := c.HeaderAt(h1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ibc.VerifyStoredMembership(hdr.AppRoot, ibc.CommitmentPath("transfer", "channel-0", 1), value, proof); err != nil {
		t.Fatal(err)
	}
	// Sequence 2 is absent at h1 but present later.
	absent, err := c.ProveNonMembershipAt(h1, ibc.CommitmentPath("transfer", "channel-0", 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := ibc.VerifyStoredNonMembership(hdr.AppRoot, ibc.CommitmentPath("transfer", "channel-0", 2), absent); err != nil {
		t.Fatal(err)
	}
}

func TestSharedSnapshotsForUnchangedRoots(t *testing.T) {
	c, clock := newTestCP(t)
	for i := 0; i < 5; i++ {
		clock.Advance(6 * time.Second)
		c.ProduceBlock()
	}
	// All five heights share the genesis version (root never changed).
	s2, err := c.SnapshotAt(2)
	if err != nil {
		t.Fatal(err)
	}
	s5, err := c.SnapshotAt(5)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Version() != s5.Version() {
		t.Fatalf("unchanged roots did not share a version: %d vs %d", s2.Version(), s5.Version())
	}
	if c.store.RetainedVersions() != 1 {
		t.Fatalf("retained %d versions for one distinct root, want 1", c.store.RetainedVersions())
	}
}

func TestValidateSelfClient(t *testing.T) {
	c, _ := newTestCP(t)
	hdr, vals := c.GenesisUpdate()
	client, err := tendermint.NewClient(c.ChainID(), hdr, vals)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ValidateSelfClient(client.StateBytes()); err != nil {
		t.Fatal(err)
	}
	// A client for another chain is rejected.
	other, err := New(Config{ChainID: "other", NumValidators: 4, BlockInterval: time.Second,
		ParticipationMin: 0.7, Seed: 9, SnapshotRetention: 16}, host.NewManualClock(time.Unix(0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	oh, ov := other.GenesisUpdate()
	oc, err := tendermint.NewClient("other", oh, ov)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ValidateSelfClient(oc.StateBytes()); err == nil {
		t.Fatal("foreign client state accepted")
	}
}

func TestSendPacketRelayableNextBlock(t *testing.T) {
	c, clock := newTestCP(t)
	// Open-channel plumbing is covered elsewhere; sending on a missing
	// channel must fail cleanly.
	if _, err := c.SendPacket("transfer", "channel-0", []byte("x"), 0, time.Time{}); err == nil {
		t.Fatal("send on missing channel accepted")
	}
	_ = clock
}

func TestEventCursor(t *testing.T) {
	c, clock := newTestCP(t)
	events, cur := c.EventsSince(0)
	base := len(events)
	clock.Advance(6 * time.Second)
	c.ProduceBlock()
	events, cur2 := c.EventsSince(cur)
	if len(events) != 0 && cur2 < cur {
		t.Fatal("cursor went backwards")
	}
	_ = base
}

// TestHeadersCommitToValidatorSet checks the stored validator-set hash
// every header carries against a fresh hash of the set.
func TestHeadersCommitToValidatorSet(t *testing.T) {
	c, clock := newTestCP(t)
	for i := 0; i < 5; i++ {
		clock.Advance(6 * time.Second)
		c.ProduceBlock()
	}
	want := c.ValidatorSet().Hash()
	for h := uint64(1); h <= c.Height(); h++ {
		hdr, err := c.HeaderAt(h)
		if err != nil {
			t.Fatal(err)
		}
		if hdr.ValSetHash != want || hdr.NextValSetHash != want {
			t.Fatalf("header %d commits to %x/%x, validator set hashes to %x", h, hdr.ValSetHash, hdr.NextValSetHash, want)
		}
	}
}
