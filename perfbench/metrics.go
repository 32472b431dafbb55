package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEndMetrics are printed by every untraced run, on every workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_s", "s"},
	{"latency_tail_s", "s"},
	{"throughput_per_s", "1/s"},
	{"cpu_per_request_s", "s"},
	{"retained_heap_mb", "MB"},
}

// countMetrics are the per-layer metrics a workload instance reports from
// public counters, or the benchmark derives from its own spans; a workload
// that cannot observe one reports 0.
var countMetrics = []metricDef{
	{"privacy.certify_s", "s"},
	{"planner.search_p50_s", "s"},
	{"planner.prefixes", "count"},
	{"runtime.setup_s", "s"},
	{"runtime.run_p50_s", "s"},
	{"runtime.reassignments", "count"},
	{"runtime.upload_retries", "count"},
	{"runtime.uploads_dropped", "count"},
	{"runtime.upload_retry_ratio", "ratio"},
	{"runtime.device_bytes_per_device", "B"},
	{"runtime.committee_bytes_per_query", "B"},
	{"runtime.aggregator_bytes_per_query", "B"},
	{"sortition.committees", "count"},
	{"vsr.transfers", "count"},
	{"vsr.redeals", "count"},
	{"mpc.rounds", "count"},
	{"mpc.comparisons", "count"},
	{"zkp.verified", "count"},
	{"zkp.rejected", "count"},
	{"zkp.accept_ratio", "ratio"},
	{"merkle.audits", "count"},
	{"merkle.audit_failures", "count"},
	{"service.submit_ack_p50_s", "s"},
	{"service.queue_wait_p50_s", "s"},
	{"service.exec_p50_s", "s"},
	{"service.requests", "count"},
	{"service.throttled", "count"},
	{"ledger.records", "count"},
	{"journal.bytes", "B"},
	{"go.gc_cpu_s", "s"},
	{"go.alloc_mb", "MB"},
	{"go.sched_wait_p50_us", "us"},
	{"go.peak_rss_mb", "MB"},
	{"trace.overhead_frac", "ratio"},
}

// perLayerMetrics are printed by every traced run, on every workload: the
// CPU each layer spends per request, then countMetrics.
func perLayerMetrics() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{l + ".self_cpu_s", "s"})
	}
	for _, l := range layers {
		if l != goLayer {
			out = append(out, metricDef{l + ".cum_cpu_s", "s"})
		}
	}
	return append(out, countMetrics...)
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(perLayerMetrics(), endToEndMetrics...) {
		m[d.name] = d.unit
	}
	return m
}()

func unitOf(name string) string {
	u, ok := units[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	return u
}

// endToEnd fills the untraced run's metrics. Latency and throughput are
// net of hypervisor steal: the process's threads ran for cpu seconds and
// waited stolen seconds while runnable, so its work progressed at
// cpu/(cpu+stolen) of the rate an unshared machine gives, and wall times are
// scaled by that factor. Without steal they are the wall-clock figures.
func (r *report) endToEnd(cfg *config, setups []float64, p *phase) {
	lat, ok := p.timings()
	net := 1.0
	if p.cpu > 0 {
		net = p.cpu / (p.cpu + p.stolen)
	}
	r.set("setup_s", median(setups))
	r.set("latency_p50_s", median(lat)*net)
	v, rank := tail(lat)
	r.set("latency_tail_s", v*net)
	r.notes = append(r.notes, tailNote(rank, len(lat)))
	wall := p.end.Sub(p.start).Seconds()
	if wall > 0 {
		r.set("throughput_per_s", float64(ok)/wall/net)
	} else {
		r.set("throughput_per_s", 0)
	}
	if len(p.reqs) > 0 {
		r.set("cpu_per_request_s", p.cpu/float64(len(p.reqs)))
	} else {
		r.set("cpu_per_request_s", 0)
	}
	r.set("retained_heap_mb", p.heap)
	r.notes = append(r.notes, fmt.Sprintf("%s seed %d: %d requests in %.2fs after %d set-ups; wall-clock latency p50 %.4gs; "+
		"the hypervisor stole %.2fs beside %.2fs of process CPU, scaling wall times by %.3f",
		cfg.workload, cfg.seed, len(p.reqs), wall, len(setups), median(lat), p.stolen, p.cpu, net))
}

// perLayer fills the traced run's metrics: CPU by layer from the profile of
// the traced phase, per completed request; the phase's counters; span
// medians; Go runtime deltas; and the tracing overhead against the untraced
// reference phase of the same run.
func (r *report) perLayer(cfg *config, ref, p *phase, prof *layerProfile, g goStats, rec *recorder) error {
	n := float64(len(p.reqs))
	if n == 0 {
		return fmt.Errorf("traced phase completed no request")
	}
	for _, l := range layers {
		r.set(l+".self_cpu_s", prof.self[l]/n)
		if l != goLayer {
			r.set(l+".cum_cpu_s", prof.cum[l]/n)
		}
	}
	for _, d := range countMetrics {
		r.set(d.name, p.counts[d.name])
	}
	r.set("privacy.certify_s", median(rec.durations("certify")))
	r.set("planner.search_p50_s", median(rec.durations("plan-reference")))
	r.set("runtime.setup_s", median(rec.durations("setup")))
	r.set("runtime.run_p50_s", median(rec.durations("run")))
	r.set("go.gc_cpu_s", g.gcCPU/n)
	r.set("go.alloc_mb", g.allocBytes/1e6/n)
	r.set("go.sched_wait_p50_us", g.schedP50*1e6)
	r.set("go.peak_rss_mb", peakRSSMB())
	refLat, _ := ref.timings()
	lat, _ := p.timings()
	if m := median(refLat); m > 0 {
		r.set("trace.overhead_frac", median(lat)/m-1)
	}
	r.notes = append(r.notes, prof.shareTable(cfg.workload))
	return nil
}

// timings returns each request's latency in seconds and the number of
// requests that succeeded.
func (p *phase) timings() (lat []float64, ok int) {
	for _, q := range p.reqs {
		lat = append(lat, q.latency.Seconds())
		if q.err == nil {
			ok++
		}
	}
	return lat, ok
}

// median returns the middle value (the mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tail returns the highest sample with at least ten samples above it, and
// its 1-based rank in ascending order. With ten samples or fewer no sample
// qualifies; the median is returned, with rank 0.
func tail(xs []float64) (float64, int) {
	if len(xs) <= 10 {
		return median(xs), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) - 11
	return s[k], k + 1
}

func tailNote(rank, n int) string {
	if rank == 0 {
		return fmt.Sprintf("latency_tail_s: %d samples, too few for a percentile with ten beyond it: the median", n)
	}
	return fmt.Sprintf("latency_tail_s: sample %d of %d ascending (p%.1f), %d samples beyond it",
		rank, n, 100*float64(rank)/float64(n), n-rank)
}

// processCPU is the user and system CPU time the process has used, in
// seconds. Unlike wall time it excludes time the hypervisor gave to other
// guests.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// stolenSeconds is the time the hypervisor has kept this guest's vCPUs from
// running while they had work, summed over vCPUs, from the steal column of
// /proc/stat (in USER_HZ = 100 ticks per second); 0 where it is missing.
// The guest runs nothing but the benchmark, so that work is the benchmark's.
func stolenSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return float64(ticks) / 100
}

// liveHeapMB collects garbage and returns the live heap the collection
// found, in MB: the memory the program keeps reachable. Unlike peak
// resident memory it does not depend on when collections ran during the
// run. It collects twice: sync.Pool caches survive one collection.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / 1e6
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
