package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/guestblock"
	"repro/internal/ibc"
	"repro/internal/lightclient/tendermint"
	"repro/internal/nodestore"
	"repro/internal/routing"
)

// callDefs are the timed public calls of the traced run, each with an
// _allocs twin where one is measured.
var callDefs = []metricDef{
	{"call.relayer_check_timeouts_ms", "ms"},
	{"call.relayer_check_timeouts_traces", "count"},
	{"call.ibc_has_commitment_ns", "ns"},
	{"call.ibc_has_commitment_allocs", "count"},
	{"call.trie_set_ns", "ns"},
	{"call.trie_set_allocs", "count"},
	{"call.trie_get_ns", "ns"},
	{"call.trie_get_allocs", "count"},
	{"call.trie_prove_ns", "ns"},
	{"call.trie_prove_allocs", "count"},
	{"call.wire_packet_encode_ns", "ns"},
	{"call.wire_packet_encode_allocs", "count"},
	{"call.wire_packet_decode_ns", "ns"},
	{"call.wire_packet_decode_allocs", "count"},
	{"call.quorum_verify_8_ns", "ns"},
	{"call.quorum_verify_8_allocs", "count"},
	{"call.quorum_verify_24_ns", "ns"},
	{"call.quorum_verify_24_allocs", "count"},
	{"call.batch_verify_24_ns", "ns"},
	{"call.batch_verify_24_allocs", "count"},
	{"call.tm_valset_hash_ns", "ns"},
	{"call.tm_valset_hash_allocs", "count"},
	{"call.tm_sign_commit_ns", "ns"},
	{"call.tm_sign_commit_allocs", "count"},
	{"call.nodestore_get_mem_ns", "ns"},
	{"call.nodestore_get_mem_allocs", "count"},
	{"call.nodestore_get_disk_ns", "ns"},
	{"call.nodestore_get_disk_allocs", "count"},
	{"call.nodestore_sync_ms", "ms"},
	{"call.middleware_recv_stacked_ns", "ns"},
	{"call.middleware_recv_stacked_allocs", "count"},
	{"call.routing_route_flow_ns", "ns"},
	{"call.routing_route_flow_allocs", "count"},
}

// goBench is one existing Benchmark* function, run from its package's
// test binary (built by run.sh) at a fixed iteration count.
type goBench struct {
	bin, dir, name, iters, metric string
}

var goBenches = []goBench{
	{"repro.test", ".", "BenchmarkTrieSet", "20000x", "call.trie_set"},
	{"repro.test", ".", "BenchmarkTrieGet", "200000x", "call.trie_get"},
	{"repro.test", ".", "BenchmarkTrieProve", "20000x", "call.trie_prove"},
	{"repro.test", ".", "BenchmarkPacketEncode", "500000x", "call.wire_packet_encode"},
	{"repro.test", ".", "BenchmarkPacketDecode", "500000x", "call.wire_packet_decode"},
	{"repro.test", ".", "BenchmarkQuorumVerify/batch", "200x", "call.quorum_verify_24"},
	{"cryptoutil.test", "internal/cryptoutil", "BenchmarkBatchVerify24/batch", "200x", "call.batch_verify_24"},
	{"middleware.test", "internal/middleware", "BenchmarkRecvStacked", "200000x", "call.middleware_recv_stacked"},
}

// testBinDir is where run.sh leaves the test binaries, relative to the
// repository root the benchmark runs from.
const testBinDir = ".bench_build/benchmark/tests"

// runGoBenches runs every goBench and records its ns/op and allocs/op.
func runGoBenches(out map[string]float64) error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	for _, gb := range goBenches {
		bin := filepath.Join(root, testBinDir, gb.bin)
		parts := strings.Split(gb.name, "/")
		pattern := "^" + parts[0] + "$"
		if len(parts) > 1 {
			pattern += "/^" + parts[1] + "$"
		}
		cmd := exec.Command(bin, "-test.run", "^$", "-test.bench", pattern, "-test.benchtime", gb.iters,
			"-test.benchmem", "-test.count", "1", "-test.cpu", strconv.Itoa(procs()), "-test.timeout", "120s")
		cmd.Dir = filepath.Join(root, gb.dir)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s %s (build it with run.sh): %w", gb.bin, gb.name, err)
		}
		ns, allocs, ok := parseBenchLine(stdout.String(), gb.name)
		if !ok {
			return fmt.Errorf("%s: no result line in:\n%s", gb.name, stdout.String())
		}
		out[gb.metric+"_ns"], out[gb.metric+"_allocs"] = ns, allocs
	}
	return nil
}

// parseBenchLine finds name's result line in go test -bench output and
// returns its ns/op and allocs/op.
func parseBenchLine(output, name string) (ns, allocs float64, ok bool) {
	sc := bufio.NewScanner(strings.NewReader(output))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 {
			continue
		}
		base := f[0]
		if i := strings.LastIndexByte(base, '-'); i > 0 {
			base = base[:i]
		}
		if base != name {
			continue
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "ns/op":
				ns, ok = v, true
			case "allocs/op":
				allocs = v
			}
		}
		return ns, allocs, ok
	}
	return 0, 0, false
}

// timeCall runs f n times after one warm-up call and returns the mean
// wall nanoseconds and heap allocations per call.
func timeCall(n int, f func(i int)) (ns, allocs float64) {
	f(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	el := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(el.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// timedCalls times the public calls that have no Benchmark* function,
// with inputs sized from the network the workload left behind.
func timedCalls(net *core.Network, out map[string]float64) error {
	rel := net.Relayer
	out["call.relayer_check_timeouts_traces"] = float64(len(rel.Traces))
	ns, _ := timeCall(5, func(int) { rel.CheckTimeouts() })
	out["call.relayer_check_timeouts_ms"] = ns / 1e6

	st, err := net.GuestState()
	if err != nil {
		return err
	}
	pkts := make([]*ibc.Packet, 0, len(rel.Traces))
	for _, tr := range rel.Traces {
		pkts = append(pkts, tr.Packet)
	}
	if len(pkts) > 0 {
		out["call.ibc_has_commitment_ns"], out["call.ibc_has_commitment_allocs"] = timeCall(20000, func(i int) {
			st.Handler.HasCommitment(pkts[i%len(pkts)])
		})
	} else {
		out["call.ibc_has_commitment_ns"], out["call.ibc_has_commitment_allocs"] = 0, 0
	}

	// Counterparty block production: hash the counterparty's own validator
	// set, and sign a commit with as many keys.
	vs := net.CP.ValidatorSet()
	out["call.tm_valset_hash_ns"], out["call.tm_valset_hash_allocs"] = timeCall(2000, func(int) { vs.Hash() })
	keys := make([]*cryptoutil.PrivKey, len(vs.Validators))
	for i := range keys {
		keys[i] = cryptoutil.GenerateKeyIndexed("benchmark-cp", i)
	}
	hdr := &tendermint.Header{ChainID: "bench", Height: 1, Time: time.Unix(1_700_000_000, 0).UTC(), ValSetHash: vs.Hash()}
	out["call.tm_sign_commit_ns"], out["call.tm_sign_commit_allocs"] = timeCall(20, func(int) {
		tendermint.SignCommit(hdr, keys, hdr.Time)
	})

	qns, qallocs, err := quorumVerify(len(net.Validators))
	if err != nil {
		return err
	}
	out["call.quorum_verify_8_ns"], out["call.quorum_verify_8_allocs"] = qns, qallocs

	nodes := 1000
	if g, ok := net.SnapshotTelemetry().Gauges["guest.state.live_nodes"]; ok && g > 0 {
		nodes = int(min(g, 200_000))
	}
	if err := nodestoreCalls(nodes, out); err != nil {
		return err
	}

	view := routing.NewView([]routing.Link{
		{A: "a", B: "guest", PortA: "transfer", PortB: "transfer", ChannelA: "channel-0", ChannelB: "channel-0"},
		{A: "a", B: "b", PortA: "transfer", PortB: "transfer", ChannelA: "channel-1", ChannelB: "channel-0"},
		{A: "b", B: "c", PortA: "transfer", PortB: "transfer", ChannelA: "channel-1", ChannelB: "channel-0"},
	}, routing.DefaultCostModel(), 1)
	var rerr error
	out["call.routing_route_flow_ns"], out["call.routing_route_flow_allocs"] = timeCall(100000, func(i int) {
		if _, err := view.RouteFlow("guest", "c", "sender", uint64(i)); err != nil {
			rerr = err
		}
	})
	return rerr
}

// quorumVerify times quorum verification of a block signed by every
// validator of an n-validator epoch (the pair workloads run 8), without
// the signature cache.
func quorumVerify(n int) (ns, allocs float64, err error) {
	vals := make([]guestblock.Validator, n)
	keys := make([]*cryptoutil.PrivKey, n)
	for i := range keys {
		keys[i] = cryptoutil.GenerateKeyIndexed("benchmark-quorum", i)
		vals[i] = guestblock.Validator{PubKey: keys[i].Public(), Stake: 100}
	}
	epoch, err := guestblock.NewEpoch(0, vals)
	if err != nil {
		return 0, 0, err
	}
	blk := &guestblock.Block{Height: 1, HostHeight: 7, Time: time.Unix(1_700_000_000, 0).UTC(),
		StateRoot: cryptoutil.HashBytes([]byte("benchmark-root")), EpochCommitment: epoch.Commitment()}
	sb := &guestblock.SignedBlock{Block: blk}
	payload := blk.SigningPayload()
	for _, k := range keys {
		sb.Signatures = append(sb.Signatures, guestblock.BlockSignature{Height: 1, PubKey: k.Public(), Signature: k.SignHash(payload)})
	}
	verifier := cryptoutil.NewBatchVerifier(cryptoutil.WithCacheSize(0))
	ns, allocs = timeCall(200, func(int) {
		if e := sb.VerifyQuorumWith(epoch, verifier); e != nil {
			err = e
		}
	})
	return ns, allocs, err
}

// nodestoreCalls times node reads from a memory and a disk store holding
// as many trie-node-sized records as the run's guest trie, and a group
// sync after a block's worth of appends.
func nodestoreCalls(nodes int, out map[string]float64) error {
	rng := rand.New(rand.NewSource(1))
	hashes := make([]cryptoutil.Hash, nodes)
	encs := make([][]byte, nodes)
	for i := range hashes {
		encs[i] = make([]byte, 72)
		rng.Read(encs[i])
		hashes[i] = cryptoutil.HashBytes(encs[i])
	}
	mem := nodestore.NewMem()
	dir, err := os.MkdirTemp("", "bench-nodestore-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	disk, err := nodestore.Open(dir, nodestore.DiskConfig{})
	if err != nil {
		return err
	}
	defer disk.Close()
	for i, h := range hashes {
		if err := mem.NodePut(h, encs[i]); err != nil {
			return err
		}
		if err := disk.NodePut(h, encs[i]); err != nil {
			return err
		}
	}
	if err := disk.Sync(); err != nil {
		return err
	}
	var gerr error
	get := func(s nodestore.Store) func(int) {
		return func(i int) {
			if _, ok, err := s.NodeGet(hashes[(i*7919)%nodes]); err != nil || !ok {
				gerr = fmt.Errorf("node %d: found=%v err=%v", i, ok, err)
			}
		}
	}
	out["call.nodestore_get_mem_ns"], out["call.nodestore_get_mem_allocs"] = timeCall(100000, get(mem))
	out["call.nodestore_get_disk_ns"], out["call.nodestore_get_disk_allocs"] = timeCall(100000, get(disk))
	if gerr != nil {
		return gerr
	}
	batch := make([]byte, 72)
	ns, _ := timeCall(20, func(i int) {
		for j := 0; j < 64; j++ {
			rng.Read(batch)
			if err := disk.NodePut(cryptoutil.HashBytes(batch), batch); err != nil {
				gerr = err
			}
		}
		if err := disk.Sync(); err != nil {
			gerr = err
		}
	})
	out["call.nodestore_sync_ms"] = ns / 1e6
	if gerr != nil {
		return gerr
	}
	return disk.Close()
}
