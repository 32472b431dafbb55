// Command perfbench is the repository's benchmark. One invocation runs one
// named workload in a process of its own, checks the program's outputs and
// prints the workload's metrics; the last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics.
//
//	bash perfbench/run.sh --workload corpus --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
// measured with tracing off. With --trace 1 the run first repeats the untraced
// loop for half of --seconds as a reference, then runs the same loop for the
// other half with CPU profiling and span recording on, and prints the
// per-layer metrics. README.md defines every workload and metric.
//
// The benchmark measures the program from outside: it times its own calls
// into each layer's public entry points, reads the public counters, and
// attributes CPU to layers from a profile of its own process.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	size     sizes
	outDir   string // traces and scratch directories
	log      io.Writer
}

// sizes shapes the workloads. Every benchmark run uses fullSize; the smoke
// test uses tinySize.
type sizes struct {
	setupReps     int           // least set-ups per run; setup_s is their median
	setupTime     time.Duration // least time spent setting up
	corpusQueries []string      // corpus queries in pass order; nil = all ten
	ingestDevices int           // devices in the ingest deployment
	planRing      string        // BGV ring the latency-timed plan requests calibrate
	planQueries   []string      // planned queries in order; nil = all ten
}

var fullSize = sizes{
	setupReps:     21,
	setupTime:     time.Second,
	ingestDevices: 3072,
	planRing:      "paper",
}

var tinySize = sizes{
	setupReps:     1,
	corpusQueries: []string{"hypotest", "cms"},
	ingestDevices: 64,
	planRing:      "test",
	planQueries:   []string{"hypotest", "cms"},
}

// workloads maps each workload name to its set-up.
var workloads = map[string]func(cfg *config, rec *recorder) (instance, error){
	"corpus":  setupCorpus,
	"ingest":  setupIngest,
	"gateway": setupGateway,
	"plan":    setupPlan,
}

// instance is one set-up workload: the state its requests run against.
type instance interface {
	// run issues requests in a closed loop until the deadline passes and
	// reports every request it completed. rec is nil when tracing is off.
	run(deadline time.Time, rec *recorder) (*phase, error)
	// finish runs the end-of-run output checks, returning one error per
	// failed check; it is called once, after the last run.
	finish() []error
	// close releases the instance.
	close()
}

// phase is one closed-loop measurement.
type phase struct {
	start, end time.Time // end is the last completion
	reqs       []request
	cpu        float64 // process CPU seconds over the phase
	stolen     float64 // seconds the hypervisor held the guest's busy vCPUs
	heap       float64 // live heap after a collection at the end, MB
	// counts are the per-layer counters of the phase, per completed
	// request where the metric is a count.
	counts map[string]float64
}

// request is one completed request.
type request struct {
	latency time.Duration // issue to checked result
	err     error         // the request failed or its output check failed
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: corpus, ingest, gateway or plan")
	seed := fs.Int64("seed", 1, "workload seed: all generated inputs derive from it")
	seconds := fs.Float64("seconds", 20, "measurement time")
	trace := fs.Int("trace", 0, "1: print per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload corpus|ingest|gateway|plan, --seconds > 0, --trace 0|1\n")
		return 2
	}
	cfg := &config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		size:     fullSize,
		outDir:   filepath.Join(".bench_build", "out"),
		log:      stderr,
	}
	rep, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// execute sets the workload up, measures it and checks its outputs.
func execute(cfg *config) (*report, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	// Set-ups repeat for a whole second, so their median spans the
	// storage and cache state of that second, not of a few milliseconds.
	var setups []float64
	var inst instance
	for start := time.Now(); len(setups) < cfg.size.setupReps || time.Since(start) < cfg.size.setupTime; {
		t0 := time.Now()
		next, err := workloads[cfg.workload](cfg, rec)
		if err != nil {
			if inst != nil {
				inst.close()
			}
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if inst != nil {
			inst.close()
		}
		inst = next
	}
	defer inst.close()

	rep := &report{Metrics: map[string]metric{}}
	var phases []*phase
	if !cfg.trace {
		p, err := measure(inst, cfg.seconds, nil)
		if err != nil {
			return nil, err
		}
		phases = append(phases, p)
		rep.endToEnd(cfg, setups, p)
	} else {
		ref, err := measure(inst, cfg.seconds/2, nil)
		if err != nil {
			return nil, err
		}
		tr, err := startTrace()
		if err != nil {
			return nil, err
		}
		p, err := measure(inst, cfg.seconds/2, rec)
		prof, goDelta, terr := tr.stop()
		if err != nil {
			return nil, err
		}
		if terr != nil {
			return nil, terr
		}
		phases = append(phases, ref, p)
		if err := rep.perLayer(cfg, ref, p, prof, goDelta, rec); err != nil {
			return nil, err
		}
		if err := writeTrace(cfg, prof.raw, rec); err != nil {
			return nil, err
		}
	}

	checks := inst.finish()
	for _, p := range phases {
		for _, r := range p.reqs {
			rep.Attempted++
			if r.err != nil {
				rep.Failed++
				checks = append(checks, r.err)
			}
		}
	}
	for _, c := range checks {
		fmt.Fprintf(cfg.log, "check failed: %v\n", c)
	}
	rep.Correct = len(checks) == 0 && rep.Attempted > 0
	if rep.Attempted == 0 {
		fmt.Fprintf(cfg.log, "check failed: no request completed\n")
	}
	return rep, nil
}

// measure runs one phase of the given length and adds the process CPU time
// and the time the hypervisor stole over it, and the heap the program keeps
// live after it.
func measure(inst instance, d time.Duration, rec *recorder) (*phase, error) {
	c0, s0 := processCPU(), stolenSeconds()
	p, err := inst.run(time.Now().Add(d), rec)
	if err != nil {
		return nil, err
	}
	p.cpu = processCPU() - c0
	p.stolen = stolenSeconds() - s0
	p.heap = liveHeapMB()
	return p, nil
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line, plus human-readable notes printed above it.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

func (r *report) set(name string, value float64) {
	r.Metrics[name] = metric{Value: value, Unit: unitOf(name)}
}

// print writes one "name value unit" line per metric, the notes, and the
// JSON result as the last line.
func (r *report) print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
