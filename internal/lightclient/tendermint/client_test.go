package tendermint

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/ibc"
)

// testChain is a miniature header producer for client tests.
type testChain struct {
	chainID string
	keys    []*cryptoutil.PrivKey
	valset  *ValidatorSet
	height  uint64
	now     time.Time
}

func newTestChain(t *testing.T, n int) *testChain {
	return newNamedTestChain(t, "tm-test", n)
}

func newNamedTestChain(t *testing.T, label string, n int) *testChain {
	t.Helper()
	c := &testChain{chainID: "test-chain", now: time.Unix(1_700_000_000, 0).UTC()}
	vals := make([]Validator, n)
	for i := 0; i < n; i++ {
		k := cryptoutil.GenerateKeyIndexed(label, i)
		c.keys = append(c.keys, k)
		vals[i] = Validator{PubKey: k.Public(), Power: 10}
	}
	vs, err := NewValidatorSet(vals)
	if err != nil {
		t.Fatal(err)
	}
	c.valset = vs
	return c
}

func (c *testChain) header(root cryptoutil.Hash) *Header {
	c.height++
	c.now = c.now.Add(6 * time.Second)
	return &Header{
		ChainID:        c.chainID,
		Height:         c.height,
		Time:           c.now,
		AppRoot:        root,
		ValSetHash:     c.valset.Hash(),
		NextValSetHash: c.valset.Hash(),
	}
}

// update builds a signed update using the first n signer keys.
func (c *testChain) update(h *Header, signers int) *Update {
	return &Update{
		Header: h,
		Commit: SignCommit(h, c.keys[:signers], h.Time),
		ValSet: c.valset,
	}
}

func newTestClient(t *testing.T, c *testChain) *Client {
	t.Helper()
	anchor := c.header(cryptoutil.HashBytes([]byte("genesis")))
	client, err := NewClient(c.chainID, anchor, c.valset)
	if err != nil {
		t.Fatal(err)
	}
	return client
}

func TestUpdateAdvances(t *testing.T) {
	c := newTestChain(t, 10)
	client := newTestClient(t, c)
	h := c.header(cryptoutil.HashBytes([]byte("r2")))
	u := c.update(h, 10)
	if err := client.Update(u.Marshal(), c.now); err != nil {
		t.Fatal(err)
	}
	if client.LatestHeight() != ibc.Height(h.Height) {
		t.Fatalf("latest = %d, want %d", client.LatestHeight(), h.Height)
	}
	ts, err := client.ConsensusTime(ibc.Height(h.Height))
	if err != nil || !ts.Equal(h.Time) {
		t.Fatalf("consensus time = %v, %v", ts, err)
	}
	root, err := client.ConsensusRoot(ibc.Height(h.Height))
	if err != nil || root != h.AppRoot {
		t.Fatalf("consensus root = %v, %v", root, err)
	}
}

func TestUpdateRejectsSubQuorum(t *testing.T) {
	c := newTestChain(t, 9)
	client := newTestClient(t, c)
	h := c.header(cryptoutil.ZeroHash)
	// 6 of 9 equal powers = exactly 2/3, NOT more than 2/3.
	u := c.update(h, 6)
	if err := client.UpdateVerified(u, c.now); !errors.Is(err, ErrInsufficientSig) {
		t.Fatalf("err = %v, want ErrInsufficientSig", err)
	}
	// 7 of 9 passes.
	u = c.update(h, 7)
	if err := client.UpdateVerified(u, c.now); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateRejectsStaleAndWrongChain(t *testing.T) {
	c := newTestChain(t, 4)
	client := newTestClient(t, c)
	h := c.header(cryptoutil.ZeroHash)
	u := c.update(h, 4)
	if err := client.UpdateVerified(u, c.now); err != nil {
		t.Fatal(err)
	}
	// Same height again -> stale.
	if err := client.UpdateVerified(u, c.now); !errors.Is(err, ErrStaleHeader) {
		t.Fatalf("err = %v, want ErrStaleHeader", err)
	}
	// Wrong chain id.
	h2 := c.header(cryptoutil.ZeroHash)
	h2.ChainID = "evil-chain"
	u2 := c.update(h2, 4)
	if err := client.UpdateVerified(u2, c.now); err == nil {
		t.Fatal("wrong chain id accepted")
	}
}

func TestUpdateRejectsForgedSignature(t *testing.T) {
	c := newTestChain(t, 4)
	client := newTestClient(t, c)
	h := c.header(cryptoutil.ZeroHash)
	u := c.update(h, 4)
	// Corrupt one signature.
	u.Commit[0].Signature[5] ^= 0xff
	if err := client.UpdateVerified(u, c.now); err == nil {
		t.Fatal("forged signature accepted")
	}
}

func TestUpdateRejectsDuplicateSigner(t *testing.T) {
	c := newTestChain(t, 4)
	client := newTestClient(t, c)
	h := c.header(cryptoutil.ZeroHash)
	u := c.update(h, 3)
	u.Commit = append(u.Commit, u.Commit[0])
	if err := client.UpdateVerified(u, c.now); err == nil {
		t.Fatal("duplicate signer accepted")
	}
}

func TestUpdateRejectsForeignValidatorSet(t *testing.T) {
	c := newTestChain(t, 4)
	client := newTestClient(t, c)
	evil := newNamedTestChain(t, "tm-evil", 4)
	evil.chainID = c.chainID
	evil.height = c.height
	evil.now = c.now
	// A header signed by a completely different validator set must fail
	// the 1/3 trusted-overlap rule even though it is internally valid.
	h := evil.header(cryptoutil.ZeroHash)
	u := evil.update(h, 4)
	if err := client.UpdateVerified(u, c.now); !errors.Is(err, ErrNoTrustOverlap) {
		t.Fatalf("err = %v, want ErrNoTrustOverlap", err)
	}
}

func TestUpdateSkipsHeights(t *testing.T) {
	c := newTestChain(t, 4)
	client := newTestClient(t, c)
	// Skip ahead: produce several headers, only submit the last.
	c.header(cryptoutil.ZeroHash)
	c.header(cryptoutil.ZeroHash)
	h := c.header(cryptoutil.HashBytes([]byte("skip")))
	u := c.update(h, 4)
	if err := client.UpdateVerified(u, c.now); err != nil {
		t.Fatal(err)
	}
	if client.LatestHeight() != ibc.Height(h.Height) {
		t.Fatalf("latest = %d, want %d", client.LatestHeight(), h.Height)
	}
}

func TestRateLimit(t *testing.T) {
	c := newTestChain(t, 4)
	anchor := c.header(cryptoutil.ZeroHash)
	client, err := NewClient(c.chainID, anchor, c.valset, WithRateLimit(2, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	now := c.now
	for i := 0; i < 2; i++ {
		h := c.header(cryptoutil.ZeroHash)
		if err := client.UpdateVerified(c.update(h, 4), now); err != nil {
			t.Fatal(err)
		}
	}
	h := c.header(cryptoutil.ZeroHash)
	if err := client.UpdateVerified(c.update(h, 4), now.Add(time.Second)); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}
	// A new window admits updates again.
	if err := client.UpdateVerified(c.update(h, 4), now.Add(2*time.Minute)); err != nil {
		t.Fatal(err)
	}
}

func TestMisbehaviourFreezes(t *testing.T) {
	c := newTestChain(t, 4)
	client := newTestClient(t, c)
	// Two conflicting headers at the same height, both with quorum.
	c.height++
	c.now = c.now.Add(6 * time.Second)
	h1 := &Header{ChainID: c.chainID, Height: c.height, Time: c.now,
		AppRoot: cryptoutil.HashBytes([]byte("fork-a")), ValSetHash: c.valset.Hash(), NextValSetHash: c.valset.Hash()}
	h2 := &Header{ChainID: c.chainID, Height: c.height, Time: c.now,
		AppRoot: cryptoutil.HashBytes([]byte("fork-b")), ValSetHash: c.valset.Hash(), NextValSetHash: c.valset.Hash()}
	u1 := &Update{Header: h1, Commit: SignCommit(h1, c.keys, c.now), ValSet: c.valset}
	u2 := &Update{Header: h2, Commit: SignCommit(h2, c.keys, c.now), ValSet: c.valset}
	if err := client.SubmitMisbehaviour(u1, u2); err != nil {
		t.Fatal(err)
	}
	if !client.Frozen() {
		t.Fatal("client not frozen")
	}
	h3 := c.header(cryptoutil.ZeroHash)
	if err := client.UpdateVerified(c.update(h3, 4), c.now); !errors.Is(err, ErrFrozen) {
		t.Fatalf("frozen client accepted update: %v", err)
	}
}

func TestUpdatePresignedUsesChecker(t *testing.T) {
	c := newTestChain(t, 4)
	client := newTestClient(t, c)
	h := c.header(cryptoutil.ZeroHash)
	u := c.update(h, 4)
	// Blank out the signatures: the runtime checker vouches instead.
	for i := range u.Commit {
		u.Commit[i].Signature = cryptoutil.Signature{}
	}
	verified := map[cryptoutil.PubKey]bool{}
	for _, k := range c.keys {
		verified[k.Public()] = true
	}
	check := func(pub cryptoutil.PubKey, _ cryptoutil.Hash) bool { return verified[pub] }
	if err := client.UpdatePresigned(u, c.now, check); err != nil {
		t.Fatal(err)
	}
	// A checker that refuses must fail the update.
	h2 := c.header(cryptoutil.ZeroHash)
	u2 := c.update(h2, 4)
	if err := client.UpdatePresigned(u2, c.now, func(cryptoutil.PubKey, cryptoutil.Hash) bool { return false }); err == nil {
		t.Fatal("refusing checker accepted")
	}
}

func TestUpdateMarshalRoundTrip(t *testing.T) {
	c := newTestChain(t, 7)
	h := c.header(cryptoutil.HashBytes([]byte("rt")))
	u := c.update(h, 6)
	data := u.Marshal()
	got, err := UnmarshalUpdate(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.Hash() != h.Hash() {
		t.Fatal("header hash changed")
	}
	if len(got.Commit) != 6 || got.ValSet.Hash() != c.valset.Hash() {
		t.Fatal("commit or valset lost")
	}
	if _, err := UnmarshalUpdate(append(data, 1)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := UnmarshalUpdate(data[:len(data)-3]); err == nil {
		t.Fatal("truncated update accepted")
	}
}

func TestClientStateRoundTrip(t *testing.T) {
	c := newTestChain(t, 4)
	client := newTestClient(t, c)
	chainID, latest, trusting, err := DecodeClientState(client.StateBytes())
	if err != nil {
		t.Fatal(err)
	}
	if chainID != c.chainID || latest != client.LatestHeight() || trusting <= 0 {
		t.Fatalf("decoded state: %q %d %v", chainID, latest, trusting)
	}
}

func TestValidatorSetRejectsBadInput(t *testing.T) {
	if _, err := NewValidatorSet(nil); err == nil {
		t.Fatal("empty set accepted")
	}
	k := cryptoutil.GenerateKey("dup-tm").Public()
	if _, err := NewValidatorSet([]Validator{{PubKey: k, Power: 1}, {PubKey: k, Power: 2}}); err == nil {
		t.Fatal("duplicate validator accepted")
	}
}

func TestUpdateSizeScalesWithValidators(t *testing.T) {
	// The serialized update size drives the chunked-transaction count of
	// Fig. 4: it must grow linearly with the validator count.
	small := newTestChain(t, 10)
	large := newTestChain(t, 100)
	hs := small.header(cryptoutil.ZeroHash)
	hl := large.header(cryptoutil.ZeroHash)
	us := small.update(hs, 10).Marshal()
	ul := large.update(hl, 100).Marshal()
	if len(ul) < 8*len(us) {
		t.Fatalf("update sizes: %d (10 vals) vs %d (100 vals); expected ~10x growth", len(us), len(ul))
	}
}

// TestSignCommitMatchesSerialLoop pins the parallel commit signer to the
// serial loop it replaced: same signers, same order, same bytes.
func TestSignCommitMatchesSerialLoop(t *testing.T) {
	for _, n := range []int{1, 7, 24, 115} {
		c := newNamedTestChain(t, fmt.Sprintf("sign-commit-%d", n), n)
		h := c.header(cryptoutil.HashBytes([]byte("root")))
		ts := h.Time.Add(time.Second)
		got := SignCommit(h, c.keys, ts)
		if len(got) != n {
			t.Fatalf("%d keys: commit has %d sigs", n, len(got))
		}
		hash := h.Hash()
		for i, k := range c.keys {
			want := CommitSig{PubKey: k.Public(), Timestamp: ts, Signature: k.SignHash(VotePayload(hash, ts))}
			if got[i] != want {
				t.Fatalf("%d keys: sig %d = %+v, want %+v", n, i, got[i], want)
			}
		}
	}
}
