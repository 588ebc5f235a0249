// Package tendermint implements a simplified Tendermint-style light client:
// BFT headers finalised by >2/3 of a known validator set, with sequential
// and skipping (1/3-overlap) verification, validator-set rotation, freezing
// on misbehaviour, and optional update rate limiting (§VI-C). The guest
// blockchain instantiates it to track the Cosmos-like counterparty; header
// and commit sizes are what force the multi-transaction chunked updates the
// paper measures (§V-A, Figs. 4-5).
package tendermint

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// Validator is a counterparty chain validator.
type Validator struct {
	PubKey cryptoutil.PubKey
	Power  uint64
}

// ValidatorSet is a canonical (pubkey-sorted) validator set.
type ValidatorSet struct {
	Validators []Validator
}

// NewValidatorSet sorts validators into canonical order.
func NewValidatorSet(vals []Validator) (*ValidatorSet, error) {
	if len(vals) == 0 {
		return nil, errors.New("tendermint: empty validator set")
	}
	vs := append([]Validator(nil), vals...)
	sort.Slice(vs, func(i, j int) bool { return vs[i].PubKey.Compare(vs[j].PubKey) < 0 })
	for i := 1; i < len(vs); i++ {
		if vs[i-1].PubKey == vs[i].PubKey {
			return nil, fmt.Errorf("tendermint: duplicate validator %s", vs[i].PubKey.Short())
		}
	}
	return &ValidatorSet{Validators: vs}, nil
}

// TotalPower returns the sum of voting powers.
func (vs *ValidatorSet) TotalPower() uint64 {
	var total uint64
	for _, v := range vs.Validators {
		total += v.Power
	}
	return total
}

// PowerOf returns pub's voting power (0 if absent).
func (vs *ValidatorSet) PowerOf(pub cryptoutil.PubKey) uint64 {
	for _, v := range vs.Validators {
		if v.PubKey == pub {
			return v.Power
		}
	}
	return 0
}

// Encode appends the canonical encoding.
func (vs *ValidatorSet) Encode(w *wire.Writer) {
	w.U16(uint16(len(vs.Validators)))
	for _, v := range vs.Validators {
		w.PubKey(v.PubKey)
		w.U64(v.Power)
	}
}

// DecodeValidatorSet reads a set written by Encode.
func DecodeValidatorSet(r *wire.Reader) (*ValidatorSet, error) {
	n := int(r.U16())
	vs := &ValidatorSet{Validators: make([]Validator, 0, n)}
	for i := 0; i < n; i++ {
		vs.Validators = append(vs.Validators, Validator{PubKey: r.PubKey(), Power: r.U64()})
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("tendermint: decode validator set: %w", err)
	}
	return vs, nil
}

// Hash returns the set's commitment.
func (vs *ValidatorSet) Hash() cryptoutil.Hash {
	w := wire.NewWriter()
	vs.Encode(w)
	return cryptoutil.HashTagged('v', w.Bytes())
}

// Header is a counterparty block header.
type Header struct {
	ChainID        string
	Height         uint64
	Time           time.Time
	AppRoot        cryptoutil.Hash // IBC provable-store root
	ValSetHash     cryptoutil.Hash
	NextValSetHash cryptoutil.Hash
}

// Encode appends the canonical encoding.
func (h *Header) Encode(w *wire.Writer) {
	w.String16(h.ChainID)
	w.U64(h.Height)
	w.Time(h.Time)
	w.Hash(h.AppRoot)
	w.Hash(h.ValSetHash)
	w.Hash(h.NextValSetHash)
}

// DecodeHeader reads a header written by Encode.
func DecodeHeader(r *wire.Reader) (*Header, error) {
	h := &Header{
		ChainID: r.String16(),
		Height:  r.U64(),
		Time:    r.Time(),
	}
	h.AppRoot = r.Hash()
	h.ValSetHash = r.Hash()
	h.NextValSetHash = r.Hash()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("tendermint: decode header: %w", err)
	}
	return h, nil
}

// Hash returns the header hash.
func (h *Header) Hash() cryptoutil.Hash {
	w := wire.NewWriter()
	h.Encode(w)
	return cryptoutil.HashTagged('h', w.Bytes())
}

// CommitSig is one validator's precommit on a header. Each signer signs
// (header hash, its own timestamp), as in Tendermint's per-vote timestamps
// (the median defines BFT time, reference [38]).
type CommitSig struct {
	PubKey    cryptoutil.PubKey
	Timestamp time.Time
	Signature cryptoutil.Signature
}

// VotePayload is the digest a validator signs for a header hash and vote
// timestamp.
func VotePayload(headerHash cryptoutil.Hash, ts time.Time) cryptoutil.Hash {
	w := wire.NewWriter()
	w.Hash(headerHash)
	w.Time(ts)
	return cryptoutil.HashTagged('V', w.Bytes())
}

// Update is a light-client update: a header, the commit that finalises it,
// and the full validator set matching ValSetHash.
type Update struct {
	Header *Header
	Commit []CommitSig
	ValSet *ValidatorSet
}

// Marshal returns the serialized update; its length is what the relayer
// must chunk across host transactions.
func (u *Update) Marshal() []byte {
	w := wire.NewWriter()
	u.Header.Encode(w)
	w.U16(uint16(len(u.Commit)))
	for _, c := range u.Commit {
		w.PubKey(c.PubKey)
		w.Time(c.Timestamp)
		w.Signature(c.Signature)
	}
	u.ValSet.Encode(w)
	return w.Bytes()
}

// UnmarshalUpdate decodes an update.
func UnmarshalUpdate(data []byte) (*Update, error) {
	r := wire.NewReader(data)
	h, err := DecodeHeader(r)
	if err != nil {
		return nil, err
	}
	u := &Update{Header: h}
	n := int(r.U16())
	for i := 0; i < n; i++ {
		u.Commit = append(u.Commit, CommitSig{
			PubKey:    r.PubKey(),
			Timestamp: r.Time(),
			Signature: r.Signature(),
		})
	}
	vs, err := DecodeValidatorSet(r)
	if err != nil {
		return nil, err
	}
	u.ValSet = vs
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("tendermint: decode update: %w", err)
	}
	return u, nil
}

// SignCommit produces a full commit for a header from the given keys
// (test/simulation helper used by the counterparty chain). Every key signs
// the same vote payload, so it is built once and the keys sign it in
// parallel (cryptoutil.SignAll); the commit is in key order.
func SignCommit(h *Header, keys []*cryptoutil.PrivKey, ts time.Time) []CommitSig {
	payload := VotePayload(h.Hash(), ts)
	sigs := cryptoutil.SignAll(keys, payload[:])
	out := make([]CommitSig, len(keys))
	for i, k := range keys {
		out[i] = CommitSig{PubKey: k.Public(), Timestamp: ts, Signature: sigs[i]}
	}
	return out
}
