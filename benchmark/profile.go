package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuBuckets are the cpu.<bucket>_frac metrics: the repro/internal
// packages whose self share an optimisation is likely to move, plus gc
// and other (everything else, including packages not listed).
var cpuBuckets = []string{
	"trie", "ibc", "relayer", "cryptoutil", "lightclient", "counterparty", "netsim", "sim",
	"host", "guest", "guestblock", "validator", "fisherman", "loadgen", "telemetry", "wire",
	"nodestore", "middleware", "routing", "transfer", "core", "gc", "other",
}

// cpuProfile is a CPU profile attributed to cpuBuckets.
type cpuProfile struct {
	shares map[string]float64
	// checkTimeouts is the inclusive share of Relayer.CheckTimeouts: the
	// samples with it anywhere on the stack.
	checkTimeouts float64
	samples       int
}

// cpuShares attributes a gzipped pprof CPU profile to cpuBuckets. A
// sample whose stack is inside the garbage collector counts as gc;
// otherwise it is charged to the innermost repro/internal package on its
// stack (so sha256 under trie counts as trie), else to other.
func cpuShares(raw []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}    // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples   [][]uint64
		weights   []int64
		sampleErr error
	)
	err = pbFields(data, func(num int, v uint64, b []byte) {
		switch num {
		case 2: // Sample
			var locs []uint64
			var w int64
			sampleErr = errors.Join(sampleErr, pbFields(b, func(num int, v uint64, b []byte) {
				switch num {
				case 1:
					locs = append(locs, pbPacked(v, b)...)
				case 2:
					if vals := pbPacked(v, b); w == 0 && len(vals) > 0 {
						w = int64(vals[0])
					}
				}
			}))
			samples, weights = append(samples, locs), append(weights, w)
		case 4: // Location
			var id uint64
			var fns []uint64
			sampleErr = errors.Join(sampleErr, pbFields(b, func(num int, v uint64, b []byte) {
				switch num {
				case 1:
					id = v
				case 4: // Line
					sampleErr = errors.Join(sampleErr, pbFields(b, func(num int, v uint64, _ []byte) {
						if num == 1 {
							fns = append(fns, v)
						}
					}))
				}
			}))
			locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			sampleErr = errors.Join(sampleErr, pbFields(b, func(num int, v uint64, _ []byte) {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}))
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
	})
	if err == nil {
		err = sampleErr
	}
	if err != nil {
		return nil, err
	}

	counts := make(map[string]int64)
	var total, checkTimeouts int64
	for i, locs := range samples {
		bucket := "other"
		inner := ""
		inCheck := false
		for _, l := range locs {
			for _, f := range locFuncs[l] {
				idx := funcName[f]
				if idx < 0 || int(idx) >= len(strs) {
					continue
				}
				name := strs[idx]
				if isGC(name) {
					bucket = "gc"
				}
				if strings.HasSuffix(name, "relayer.(*Relayer).CheckTimeouts") {
					inCheck = true
				}
				if inner == "" && strings.HasPrefix(name, "repro/internal/") {
					inner = name[len("repro/internal/"):]
					inner = inner[:strings.IndexAny(inner+".", "./")]
				}
			}
		}
		if bucket != "gc" && inner != "" {
			bucket = "other"
			for _, b := range cpuBuckets {
				if b == inner {
					bucket = b
				}
			}
		}
		counts[bucket] += weights[i]
		total += weights[i]
		if inCheck {
			checkTimeouts += weights[i]
		}
	}
	p := &cpuProfile{shares: make(map[string]float64, len(cpuBuckets)), samples: len(samples)}
	if total == 0 {
		total = 1
	}
	for _, b := range cpuBuckets {
		p.shares[b] = float64(counts[b]) / float64(total)
	}
	p.checkTimeouts = float64(checkTimeouts) / float64(total)
	return p, nil
}

// isGC reports whether a runtime frame belongs to garbage collection
// (background marking, mark assists, sweeping, scavenging, forced GC).
func isGC(name string) bool {
	return strings.HasPrefix(name, "runtime.gc") || strings.HasPrefix(name, "runtime.bgsweep") ||
		strings.HasPrefix(name, "runtime.bgscavenge") || strings.HasPrefix(name, "runtime.markroot") ||
		name == "runtime.GC"
}

// pbFields walks the top-level fields of a protobuf message, calling fn
// with the field number and either the varint value or the bytes of a
// length-delimited field. Fixed-width fields are skipped.
func pbFields(b []byte, fn func(num int, v uint64, data []byte)) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), key&7
		switch wt {
		case 0:
			v, n := pbVarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			fn(num, v, nil)
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			fn(num, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wt)
		}
	}
	return nil
}

// pbPacked returns a repeated varint field's values, whether it arrived
// packed (data) or as a single value (v).
func pbPacked(v uint64, data []byte) []uint64 {
	if data == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(data) > 0 {
		x, n := pbVarint(data)
		if n <= 0 {
			break
		}
		out = append(out, x)
		data = data[n:]
	}
	return out
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
