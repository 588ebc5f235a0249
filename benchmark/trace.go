package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"
)

// baselineFrom is the first round index of the traced run's untraced
// baseline, far past any round the traced pass runs.
const baselineFrom = 1000

// perLayerDefs is the full per-layer metric list: the telemetry-derived
// figures, the CPU self shares, allocation volume and the timed calls.
func perLayerDefs() []metricDef {
	defs := append([]metricDef(nil), perLayer...)
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{"cpu." + b + "_frac", "ratio"})
	}
	defs = append(defs, metricDef{"cpu.check_timeouts_incl_frac", "ratio"})
	defs = append(defs, metricDef{"alloc_mb_per_1k_settled", "MiB"})
	return append(defs, callDefs...)
}

// measureTraced is the traced run. It first runs the workload untraced on
// rounds the traced pass does not use (a baseline for the tracing
// overhead), then runs the fixed rounds again with the CPU profiler on and
// reads the program's telemetry, then times the public calls with inputs
// sized from the last network and runs the existing micro-benchmarks.
func measureTraced(w *workload, seed int64, seconds time.Duration) (*measurement, error) {
	base, err := measure(w, seed, seconds, baselineFrom)
	if err != nil {
		return nil, err
	}
	base.drop()

	var prof bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	m, err := measure(w, seed, seconds, 0)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	defer m.drop()
	m.violations = append(m.violations, base.violations...)

	m.layers = m.layerMetrics()
	cpu, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for b, v := range cpu.shares {
		m.layers["cpu."+b+"_frac"] = v
	}
	m.layers["cpu.check_timeouts_incl_frac"] = cpu.checkTimeouts
	m.layers["alloc_mb_per_1k_settled"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / m.settled() * 1000
	m.layers["trace_overhead_frac"] = m.wallPerSettled()/base.wallPerSettled() - 1
	if err := timedCalls(m.net, m.layers); err != nil {
		return nil, fmt.Errorf("timed calls: %w", err)
	}
	if err := runGoBenches(m.layers); err != nil {
		return nil, fmt.Errorf("micro-benchmarks: %w", err)
	}
	fmt.Printf("  traced pass: %d CPU profile samples; untraced baseline: %d rounds\n", cpu.samples, len(base.rounds))
	return m, nil
}

// settled counts terminal transfers over every round.
func (m *measurement) settled() float64 {
	var n int
	for _, r := range m.rounds {
		for _, run := range r.runs {
			n += run.out.settled()
		}
	}
	return float64(max(n, 1))
}

// wallPerSettled is driving wall time per settled transfer.
func (m *measurement) wallPerSettled() float64 {
	var drive float64
	for _, r := range m.rounds {
		for _, run := range r.runs {
			drive += run.driveS
		}
	}
	return drive / m.settled()
}
