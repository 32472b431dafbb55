package main

import (
	"fmt"
	"math"
	"time"

	"arboretum/internal/faults"
	"arboretum/internal/runtime"
)

// ingest is one analyst repeatedly running the Laplace count on a large
// deployment through the runtime's default collection path, with 2% of
// devices uploading malformed inputs and a seeded 1% upload-timeout
// schedule. Per-device work dominates: Paillier encryption, ZKP proving and
// verifying, Merkle-audited aggregation; no MPC comparison runs.
type ingest struct {
	dep       *runtime.Deployment
	devices   int
	malformed int
	truth     float64 // honest devices in category 0
}

const ingestCategories = 4

func setupIngest(cfg *config, rec *recorder) (instance, error) {
	n := cfg.size.ingestDevices
	cats := zipfCategories(subSeed(cfg.seed, "ingest-data"), n, ingestCategories)
	bad := map[int]bool{}
	for _, i := range pickDevices(subSeed(cfg.seed, "ingest-malformed"), n, n*2/100) {
		bad[i] = true
	}
	schedule := faults.New(uint64(subSeed(cfg.seed, "ingest-faults"))).SetRate(faults.UploadTimeout, 0.01)
	s := rec.begin("setup", 0, 0)
	dep, err := runtime.NewDeployment(runtime.Config{
		N: n, Categories: ingestCategories, CommitteeSize: 5,
		Seed:          subSeed(cfg.seed, "ingest-runtime"),
		BudgetEpsilon: 1e6,
		Data:          func(i int) int { return cats[i] },
		Faults:        schedule,
	})
	rec.end(s)
	if err != nil {
		return nil, err
	}
	// The malformed set is an input like the data: the benchmark chooses
	// it from the seed rather than taking the runtime's first-devices
	// MaliciousFrac default.
	for i := range bad {
		dep.Devices[i].Malicious = true
	}
	return &ingest{dep: dep, devices: n, malformed: len(bad), truth: histogram(cats, ingestCategories, bad)[0]}, nil
}

func (w *ingest) run(deadline time.Time, rec *recorder) (*phase, error) {
	before := w.dep.Metrics
	p := &phase{start: time.Now()}
	for time.Now().Before(deadline) {
		p.reqs = append(p.reqs, w.request(rec))
	}
	p.end = time.Now()
	p.counts = metricsDelta([]runtime.Metrics{before}, []runtime.Metrics{w.dep.Metrics}, len(p.reqs), w.devices)
	return p, nil
}

func (w *ingest) request(rec *recorder) request {
	req, root := rec.request()
	defer rec.end(root)
	t0 := time.Now()
	s := rec.begin("certify", req, root)
	cert, err := runtime.Certify(countQuery, w.devices, ingestCategories)
	rec.end(s)
	if err != nil {
		return request{latency: time.Since(t0), err: fmt.Errorf("certify: %w", err)}
	}
	before := w.dep.Metrics
	eps0, _ := w.dep.Budget.Remaining()
	s = rec.begin("run", req, root)
	res, err := w.dep.Run(countQuery, runtime.RunOptions{})
	rec.end(s)
	r := request{latency: time.Since(t0)}
	if err != nil {
		r.err = fmt.Errorf("run: %w", err)
		return r
	}
	eps1, _ := w.dep.Budget.Remaining()
	dropped := w.dep.Metrics.UploadsDropped - before.UploadsDropped
	rejected := w.dep.Metrics.ZKPsRejected - before.ZKPsRejected
	switch {
	case len(res.Outputs) != 1:
		r.err = fmt.Errorf("%d outputs, want 1", len(res.Outputs))
	case res.Accepted != w.devices-rejected-dropped:
		r.err = fmt.Errorf("accepted %d inputs: %d devices, %d rejected, %d dropped", res.Accepted, w.devices, rejected, dropped)
	case rejected > w.malformed || rejected < w.malformed-dropped:
		r.err = fmt.Errorf("rejected %d inputs, %d devices malformed, %d dropped", rejected, w.malformed, dropped)
	case math.Abs((eps0-eps1)-cert.Epsilon) > 1e-9 || cert.Epsilon != countEpsilon:
		r.err = fmt.Errorf("charged ε %g, certified %g", eps0-eps1, cert.Epsilon)
	default:
		// A dropped device may have been an honest category-0 one.
		r.err = checkLaplace("count", res.Outputs[0].Float(), w.truth-float64(dropped), w.truth, 1, countEpsilon)
	}
	return r
}

func (w *ingest) finish() []error { return nil }

func (w *ingest) close() {}
