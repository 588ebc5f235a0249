package cryptoutil

import (
	"fmt"
	"sync"
	"testing"
)

// quorumTasks builds n valid hash-signature tasks from distinct keys.
func quorumTasks(n int) []VerifyTask {
	tasks := make([]VerifyTask, n)
	payload := HashBytes([]byte("payload"))
	for i := range tasks {
		k := GenerateKeyIndexed("batch-test", i)
		tasks[i] = HashTask(k.Public(), payload, k.SignHash(payload))
	}
	return tasks
}

func corrupt(t VerifyTask) VerifyTask {
	t.Sig[0] ^= 0xff
	return t
}

func TestBatchVerifyAllTable(t *testing.T) {
	base := quorumTasks(7)
	cases := []struct {
		name    string
		mutate  func([]VerifyTask) []VerifyTask
		workers int
		want    bool
	}{
		{"empty batch", func([]VerifyTask) []VerifyTask { return nil }, 4, true},
		{"single task", func(ts []VerifyTask) []VerifyTask { return ts[:1] }, 4, true},
		{"all valid", func(ts []VerifyTask) []VerifyTask { return ts }, 4, true},
		{"all valid serial", func(ts []VerifyTask) []VerifyTask { return ts }, 1, true},
		{"wrong signer", func(ts []VerifyTask) []VerifyTask {
			out := append([]VerifyTask(nil), ts...)
			out[3].Pub = ts[4].Pub
			return out
		}, 4, false},
	}
	// One invalid signature at each position, serial and parallel.
	for pos := 0; pos < len(base); pos++ {
		pos := pos
		for _, workers := range []int{1, 4} {
			cases = append(cases, struct {
				name    string
				mutate  func([]VerifyTask) []VerifyTask
				workers int
				want    bool
			}{
				fmt.Sprintf("invalid at %d workers %d", pos, workers),
				func(ts []VerifyTask) []VerifyTask {
					out := append([]VerifyTask(nil), ts...)
					out[pos] = corrupt(out[pos])
					return out
				},
				workers, false,
			})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := NewBatchVerifier(WithWorkers(tc.workers), WithCacheSize(64))
			tasks := tc.mutate(base)
			if got := v.VerifyAll(tasks); got != tc.want {
				t.Fatalf("VerifyAll = %v, want %v", got, tc.want)
			}
			// Equivalence with the sequential single-signature path.
			want := true
			for _, task := range tasks {
				if !VerifyHash(task.Pub, Hash(task.Msg), task.Sig) {
					want = false
					break
				}
			}
			if want != tc.want {
				t.Fatalf("sequential VerifyHash disagrees: %v vs %v", want, tc.want)
			}
		})
	}
}

func TestBatchVerifyEach(t *testing.T) {
	tasks := quorumTasks(6)
	tasks[1] = corrupt(tasks[1])
	tasks[4] = corrupt(tasks[4])
	v := NewBatchVerifier(WithWorkers(3), WithCacheSize(16))
	got := v.VerifyEach(tasks)
	want := []bool{true, false, true, true, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("VerifyEach[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestBatchVerifyCacheAccounting(t *testing.T) {
	tasks := quorumTasks(5)
	v := NewBatchVerifier(WithWorkers(2), WithCacheSize(16))

	if !v.VerifyAll(tasks) {
		t.Fatal("first pass should verify")
	}
	s := v.Stats()
	if s.Hits != 0 || s.Misses != 5 || s.Len != 5 {
		t.Fatalf("after cold pass: %+v", s)
	}

	if !v.VerifyAll(tasks) {
		t.Fatal("second pass should verify")
	}
	s = v.Stats()
	if s.Hits != 5 || s.Misses != 5 {
		t.Fatalf("after warm pass: %+v", s)
	}

	// Invalid signatures are never cached.
	bad := corrupt(tasks[0])
	if v.Verify(bad) {
		t.Fatal("corrupt signature verified")
	}
	if v.Verify(bad) {
		t.Fatal("corrupt signature verified on retry")
	}
	s = v.Stats()
	if s.Misses != 7 {
		t.Fatalf("invalid tasks must always miss: %+v", s)
	}
}

func TestBatchVerifyCacheBounded(t *testing.T) {
	const capacity = 8
	v := NewBatchVerifier(WithWorkers(2), WithCacheSize(capacity))
	payload := HashBytes([]byte("bounded"))
	for i := 0; i < 10*capacity; i++ {
		k := GenerateKeyIndexed("bounded", i)
		if !v.Verify(HashTask(k.Public(), payload, k.SignHash(payload))) {
			t.Fatalf("task %d failed", i)
		}
		if got := v.Stats().Len; got > capacity {
			t.Fatalf("cache grew to %d entries, cap %d", got, capacity)
		}
	}
	if got := v.Stats().Len; got != capacity {
		t.Fatalf("cache len %d, want full at %d", got, capacity)
	}

	// An evicted entry re-verifies (miss), a retained one hits.
	s0 := v.Stats()
	k := GenerateKeyIndexed("bounded", 0) // oldest, long evicted
	v.Verify(HashTask(k.Public(), payload, k.SignHash(payload)))
	if v.Stats().Misses != s0.Misses+1 {
		t.Fatal("evicted entry should re-verify")
	}
	k = GenerateKeyIndexed("bounded", 10*capacity-1) // newest, retained
	v.Verify(HashTask(k.Public(), payload, k.SignHash(payload)))
	if v.Stats().Hits != s0.Hits+1 {
		t.Fatal("retained entry should hit")
	}
}

func TestBatchVerifyConcurrentCallers(t *testing.T) {
	v := NewBatchVerifier(WithWorkers(4), WithCacheSize(32))
	valid := quorumTasks(8)
	invalid := append([]VerifyTask(nil), valid...)
	invalid[5] = corrupt(invalid[5])

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if !v.VerifyAll(valid) {
					errs <- fmt.Sprintf("goroutine %d: valid batch rejected", g)
				}
				if v.VerifyAll(invalid) {
					errs <- fmt.Sprintf("goroutine %d: invalid batch accepted", g)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	s := v.Stats()
	if s.Hits == 0 {
		t.Fatalf("concurrent warm batches should hit the cache: %+v", s)
	}
}

// verifyConcurrently runs Verify(task) from n goroutines released together
// and returns their verdicts.
func verifyConcurrently(v *BatchVerifier, task VerifyTask, n int) []bool {
	got := make([]bool, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(n)
	for g := 0; g < n; g++ {
		go func(g int) {
			defer wg.Done()
			<-start
			got[g] = v.Verify(task)
		}(g)
	}
	close(start)
	wg.Wait()
	return got
}

func TestVerifyInFlightDedupValid(t *testing.T) {
	const n = 16
	v := NewBatchVerifier(WithCacheSize(16))
	for g, ok := range verifyConcurrently(v, quorumTasks(1)[0], n) {
		if !ok {
			t.Fatalf("goroutine %d: valid triple rejected", g)
		}
	}
	if s := v.Stats(); s.Misses != 1 || s.Hits != n-1 || s.Len != 1 {
		t.Fatalf("stats = %+v, want 1 miss, %d hits, 1 entry", s, n-1)
	}
}

func TestVerifyInFlightDedupInvalid(t *testing.T) {
	const n = 16
	v := NewBatchVerifier(WithCacheSize(16))
	bad := corrupt(quorumTasks(1)[0])
	for g, ok := range verifyConcurrently(v, bad, n) {
		if ok {
			t.Fatalf("goroutine %d: invalid triple accepted", g)
		}
	}
	s := v.Stats()
	if s.Len != 0 || s.Hits+s.Misses != n {
		t.Fatalf("stats = %+v, want nothing cached and %d requests", s, n)
	}
	// Not cached, not left in flight: the next request verifies afresh.
	if v.Verify(bad) {
		t.Fatal("invalid triple accepted on retry")
	}
	if got := v.Stats().Misses; got != s.Misses+1 {
		t.Fatalf("misses = %d, want %d: an invalid verdict must not be reused", got, s.Misses+1)
	}
}

func TestPrefetchThenVerify(t *testing.T) {
	v := NewBatchVerifier(WithWorkers(2), WithCacheSize(16))
	tasks := quorumTasks(3)
	v.Prefetch(tasks[:1])
	if s := v.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("after prefetch: %+v, want the claim counted as 1 miss", s)
	}
	if !v.Verify(tasks[0]) {
		t.Fatal("prefetched triple rejected")
	}
	if s := v.Stats(); s.Misses != 1 || s.Hits != 1 || s.Len != 1 {
		t.Fatalf("after verify: %+v, want 1 miss and 1 hit", s)
	}
	// Prefetching what is already cached counts nothing; a batch mixing
	// cached and fresh triples claims only the fresh ones.
	v.Prefetch(tasks)
	if !v.VerifyAll(tasks) {
		t.Fatal("prefetched batch rejected")
	}
	if s := v.Stats(); s.Misses != 3 || s.Hits != 4 {
		t.Fatalf("after batch: %+v, want 3 misses and 4 hits", s)
	}
}

func TestPrefetchInvalidReportsFalse(t *testing.T) {
	v := NewBatchVerifier(WithCacheSize(16))
	bad := corrupt(quorumTasks(1)[0])
	v.Prefetch([]VerifyTask{bad})
	if v.Verify(bad) {
		t.Fatal("prefetched invalid triple accepted")
	}
	if s := v.Stats(); s.Len != 0 {
		t.Fatalf("invalid triple cached: %+v", s)
	}
}

func TestVerifyWithoutCache(t *testing.T) {
	v := NewBatchVerifier(WithWorkers(2), WithCacheSize(0))
	tasks := quorumTasks(4)
	v.Prefetch(tasks) // nothing to keep the verdicts in: a no-op
	if s := v.Stats(); s.Misses != 0 {
		t.Fatalf("prefetch without a cache did work: %+v", s)
	}
	for i, task := range tasks {
		if !v.Verify(task) {
			t.Fatalf("task %d rejected", i)
		}
	}
	if !v.VerifyAll(tasks) {
		t.Fatal("valid batch rejected")
	}
	if v.Verify(corrupt(tasks[0])) {
		t.Fatal("invalid triple accepted")
	}
	if s := v.Stats(); s.Misses != 9 || s.Hits != 0 || s.Len != 0 || s.Cap != 0 {
		t.Fatalf("stats = %+v, want every request a miss and no cache", s)
	}
}

func BenchmarkBatchVerify24(b *testing.B) {
	tasks := quorumTasks(24)
	for _, bench := range []struct {
		name string
		v    *BatchVerifier
	}{
		{"sequential", NewBatchVerifier(WithWorkers(1), WithCacheSize(0))},
		{"batch", NewBatchVerifier(WithCacheSize(0))},
		{"cached", NewBatchVerifier()},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !bench.v.VerifyAll(tasks) {
					b.Fatal("batch rejected")
				}
			}
		})
	}
}

func TestSignAllMatchesSerial(t *testing.T) {
	msg := []byte("sign-all")
	for _, n := range []int{0, 1, 2, 33} {
		keys := make([]*PrivKey, n)
		for i := range keys {
			keys[i] = GenerateKeyIndexed("sign-all", i)
		}
		got := SignAll(keys, msg)
		if len(got) != n {
			t.Fatalf("%d keys: %d signatures", n, len(got))
		}
		for i, k := range keys {
			if got[i] != k.Sign(msg) {
				t.Fatalf("%d keys: signature %d differs from serial Sign", n, i)
			}
		}
	}
}
