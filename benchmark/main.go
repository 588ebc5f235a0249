// Command benchmark is the repository benchmark: it runs one named
// workload against the public API of core, loadgen and experiments,
// checks every run's outputs for correctness, and prints each metric by
// name with its unit. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
//
//	go build -o bench . && ./bench --workload pair-ramp --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end set (virtual-time latency
// and wall-time speed); with --trace 1 a separate, CPU-profiled pass
// reports the per-layer set. See README.md for the workloads, the metric
// definitions and the layer-to-metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics of an untraced run, in print order. Every
// workload reports every one of them, and none is ever zero.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"settled_per_wall_s", "1/s"},
	{"wall_s_per_sim_day", "s"},
	{"retained_heap_mb", "MiB"},
	{"deliver_p50_s", "s"},
	{"deliver_p95_s", "s"},
	{"ack_p50_s", "s"},
	{"ack_p95_s", "s"},
	{"fee_usd_per_delivered", "USD"},
}

func main() {
	workload := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 15, "keep starting rounds, beyond the fixed ones, until this many wall seconds have passed")
	trace := flag.Int("trace", 0, "1 = CPU-profiled run reporting the per-layer metrics")
	flag.Parse()

	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want one of %s)\n", *workload, workloadNames())
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs())

	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// procs is the GOMAXPROCS every workload runs with: at most two, so the
// figures compare across machines with more cores.
func procs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run executes one workload and assembles its result line. Human-readable
// detail goes to standard output before the JSON line.
func run(w *workload, seed int64, seconds time.Duration, trace bool) (*result, error) {
	fmt.Printf("workload %s seed %d: %s\n", w.name, seed, w.why)
	var (
		m   *measurement
		err error
	)
	if trace {
		m, err = measureTraced(w, seed, seconds)
	} else {
		m, err = measure(w, seed, seconds, 0)
		if m != nil {
			m.drop()
		}
	}
	if err != nil {
		return nil, err
	}
	m.print()

	defs, values := endToEnd, m.endToEnd()
	if trace {
		defs, values = perLayerDefs(), m.layers
	}
	res := &result{
		Correct:   len(m.violations) == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("  %-40s %14.6g %s\n", d.Name, v, d.Unit)
	}
	for _, v := range m.violations {
		fmt.Printf("VIOLATION %s\n", v)
	}
	return res, nil
}
