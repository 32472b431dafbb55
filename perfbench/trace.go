package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Req    int     `json:"req,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the recorder started
	End    float64 `json:"end_s"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how untraced phases run.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	reqs   int
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// request opens the root span of a fresh request and returns the request
// id and the span's id; the request's calls are its children.
func (r *recorder) request() (req, root int) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	r.reqs++
	req = r.reqs
	r.mu.Unlock()
	return req, r.begin("request", req, 0)
}

// begin opens a span and returns its id (0 when not recording).
func (r *recorder) begin(name string, req, parent int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: time.Since(r.origin).Seconds(),
	})
	return len(r.spans)
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = time.Since(r.origin).Seconds()
}

// durations returns the durations of the closed spans with the given name.
func (r *recorder) durations(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// writeTrace saves the CPU profile and the spans of a traced run.
func writeTrace(cfg *config, profile []byte, rec *recorder) error {
	base := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := os.WriteFile(base+".cpu.pprof", profile, 0o644); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	rec.mu.Lock()
	for _, s := range rec.spans {
		if err := enc.Encode(s); err != nil {
			rec.mu.Unlock()
			return err
		}
	}
	rec.mu.Unlock()
	return os.WriteFile(base+".spans.jsonl", buf.Bytes(), 0o644)
}

// tracer profiles the process's CPU and snapshots the Go runtime's metrics
// over the traced phase.
type tracer struct {
	buf    bytes.Buffer
	before goSnapshot
}

func startTrace() (*tracer, error) {
	t := &tracer{before: readGo()}
	if err := pprof.StartCPUProfile(&t.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return t, nil
}

func (t *tracer) stop() (*layerProfile, goStats, error) {
	pprof.StopCPUProfile()
	g := t.before.delta(readGo())
	prof, err := attribute(t.buf.Bytes())
	return prof, g, err
}

// goSnapshot is a reading of the Go runtime's own counters.
type goSnapshot struct {
	gcCPU, allocBytes float64
	sched             *metrics.Float64Histogram
}

// goStats are the Go runtime's totals over a phase.
type goStats struct {
	gcCPU, allocBytes float64
	schedP50          float64 // seconds a runnable goroutine waited, median
}

func readGo() goSnapshot {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	var g goSnapshot
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = float64(s[1].Value.Uint64())
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		g.sched = s[2].Value.Float64Histogram()
	}
	return g
}

func (a goSnapshot) delta(b goSnapshot) goStats {
	g := goStats{gcCPU: b.gcCPU - a.gcCPU, allocBytes: b.allocBytes - a.allocBytes}
	if a.sched != nil && b.sched != nil && len(a.sched.Counts) == len(b.sched.Counts) {
		counts := make([]uint64, len(b.sched.Counts))
		for i := range counts {
			counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
		}
		g.schedP50 = histMedian(b.sched.Buckets, counts)
	}
	return g
}

// histMedian returns the midpoint of the bucket holding the median.
func histMedian(buckets []float64, counts []uint64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if total > 0 && 2*cum >= total {
			lo, hi := buckets[i], buckets[i+1]
			switch {
			case math.IsInf(lo, -1):
				return hi
			case math.IsInf(hi, 1):
				return lo
			}
			return (lo + hi) / 2
		}
	}
	return 0
}

// layerProfile is CPU time by layer, in seconds. A sample's self layer is
// the innermost frame in a repository package (goLayer when none is); its
// cumulative layers are every layer on its stack.
type layerProfile struct {
	raw       []byte
	self, cum map[string]float64
	total     float64
}

var errProfile = errors.New("malformed cpu profile")

// attribute decodes the gzip-compressed profile.proto that runtime/pprof
// writes, keeping only what layer attribution needs.
func attribute(raw []byte) (*layerProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct{ locs, values []uint64 }
	var (
		strs     []string
		types    []uint64 // sample_type names, as string indices
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
		funcName = map[uint64]uint64{}   // function id → name string index
	)
	err = fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type, unit}
			return fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2: // sample: {location_id..., value...}
			var s sample
			err := fields(b, func(n int, v uint64, p []byte) error {
				var err error
				switch n {
				case 1:
					s.locs, err = varints(s.locs, v, p)
				case 2:
					s.values, err = varints(s.values, v, p)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location: {id, line{function_id}...}
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(p, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function: {id, name}
			var id, name uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cpu := len(types) - 1
	for i, t := range types {
		if t < uint64(len(strs)) && strs[t] == "cpu" {
			cpu = i
		}
	}
	name := func(fn uint64) string {
		if i := funcName[fn]; i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &layerProfile{raw: raw, self: map[string]float64{}, cum: map[string]float64{}}
	for _, s := range samples {
		if cpu < 0 || cpu >= len(s.values) {
			return nil, errProfile
		}
		secs := float64(s.values[cpu]) / 1e9
		self := ""
		onStack := map[string]bool{}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if l := layerOfFunc(name(fn)); l != "" {
					if self == "" {
						self = l
					}
					onStack[l] = true
				}
			}
		}
		if self == "" {
			self = goLayer
		}
		p.self[self] += secs
		for l := range onStack {
			p.cum[l] += secs
		}
		p.total += secs
	}
	return p, nil
}

// fields calls fn for each field of one protobuf message with the varint
// value (wire type 0) or the payload (wire type 2); fixed-width fields are
// skipped.
func fields(b []byte, fn func(num int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProfile
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProfile
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if key&7 == 5 {
				w = 4
			}
			if len(b) < w {
				return errProfile
			}
			b = b[w:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProfile
			}
			payload := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, payload); err != nil {
				return err
			}
		default:
			return errProfile
		}
	}
	return nil
}

// varints appends a repeated varint field that arrives packed (payload) or
// one element at a time (v).
func varints(dst []uint64, v uint64, payload []byte) ([]uint64, error) {
	if payload == nil {
		return append(dst, v), nil
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, errProfile
		}
		dst = append(dst, x)
		payload = payload[n:]
	}
	return dst, nil
}

// shareTable renders each layer's share of the traced phase's CPU as a
// Markdown table, largest self share first.
func (p *layerProfile) shareTable(workload string) string {
	ls := append([]string(nil), layers...)
	sort.SliceStable(ls, func(i, j int) bool { return p.self[ls[i]] > p.self[ls[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "CPU by layer, %s (%.2f CPU-s profiled)\n", workload, p.total)
	if p.total == 0 {
		return b.String()
	}
	b.WriteString("| layer | self % | cum % |\n|---|---:|---:|\n")
	for _, l := range ls {
		if p.self[l] == 0 && p.cum[l] == 0 {
			continue
		}
		cum := "—"
		if l != goLayer {
			cum = fmt.Sprintf("%.1f", 100*p.cum[l]/p.total)
		}
		fmt.Fprintf(&b, "| %s | %.1f | %s |\n", l, 100*p.self[l]/p.total, cum)
	}
	return strings.TrimRight(b.String(), "\n")
}
