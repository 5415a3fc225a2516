package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
)

// goSnap is a reading of the Go runtime's cumulative allocation and CPU
// meters; two readings bracket a measured phase.
type goSnap struct {
	allocs          uint64
	gcCPU, totalCPU float64
}

func readGo() goSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var g goSnap
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = s[2].Value.Float64()
	}
	return g
}

// heapMB is the live heap after two full collections: objects parked in a
// sync.Pool survive the first. A workload reports the growth across its
// set-up: the memory its indexes and server hold.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// zeroLayers starts a traced run's metric set with every per-layer metric at
// zero; a workload overwrites the layers it loads.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(layerMetrics))
	for _, d := range layerMetrics {
		m[d.name] = 0
	}
	return m
}

// overhead stores, for every end-to-end metric, the traced value minus the
// untraced one.
func overhead(dst, traced, plain map[string]float64) {
	for _, d := range e2eMetrics {
		dst["trace.overhead."+d.name] = traced[d.name] - plain[d.name]
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for key := range m {
		out = append(out, key)
	}
	sort.Strings(out)
	return out
}
