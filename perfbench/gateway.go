package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"arboretum/internal/ledger"
	"arboretum/internal/runtime"
	"arboretum/internal/service"
)

// gateway is two analysts driving an in-process service.Server over
// loopback HTTP, closed loop: submit the count query, poll until the job is
// terminal, fetch the result; every fourth submission also read the budget
// and list the jobs. Each job runs on its own small deployment, so per-job
// fixed costs (key generation, committee formation, hand-off) dominate,
// beside the ledger and journal writes of admission. It is the only
// workload that reaches service, ledger and wal.
type gateway struct {
	dir       string
	seed      int64 // the service's Config.Seed
	srv       *service.Server
	hs        *http.Server
	served    chan struct{} // closed when the HTTP server's Serve returns
	base      string
	client    *http.Client
	jobs      []service.Job // every completed job, for the final checks
	shutdown  sync.Once
	closeErrs []error
}

// The service's default deployment shape, spelled out so the checks can
// rebuild each job's device data.
const (
	gatewayDevices    = 96
	gatewayCategories = 8
	gatewayCommittee  = 5
	gatewayClients    = 2
	pollInterval      = 20 * time.Millisecond
)

var gatewayTenants = []string{"acme", "globex", "initech", "umbrella"}

// setupGateway starts the gateway: ledger and journal open in a fresh
// directory, four tenants created, the API served on a loopback port.
func setupGateway(cfg *config, rec *recorder) (instance, error) {
	dir, err := os.MkdirTemp(cfg.outDir, "gateway-")
	if err != nil {
		return nil, err
	}
	g := &gateway{dir: dir, seed: subSeed(cfg.seed, "gateway-service"), served: make(chan struct{})}
	tenants := make([]service.TenantSpec, len(gatewayTenants))
	for i, t := range gatewayTenants {
		tenants[i] = service.TenantSpec{ID: t, Epsilon: 1e6, Delta: 1e-3}
	}
	s := rec.begin("service-start", 0, 0)
	g.srv, err = service.New(service.Config{
		LedgerPath: filepath.Join(dir, "budget.wal"),
		Tenants:    tenants,
		Devices:    gatewayDevices, Categories: gatewayCategories, CommitteeSize: gatewayCommittee,
		Seed: g.seed,
	})
	if err != nil {
		rec.end(s)
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rec.end(s)
		g.srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	g.hs = &http.Server{Handler: g.srv.Handler()}
	go func() {
		defer close(g.served)
		g.hs.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	rec.end(s)
	g.base = "http://" + ln.Addr().String()
	g.client = &http.Client{Timeout: time.Minute}
	return g, nil
}

func (g *gateway) run(deadline time.Time, rec *recorder) (*phase, error) {
	h0, err := g.health()
	if err != nil {
		return nil, err
	}
	p := &phase{start: time.Now()}
	results := make([]clientResult, gatewayClients)
	var wg sync.WaitGroup
	for c := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[c] = g.client1(c, deadline, rec)
		}()
	}
	wg.Wait()
	p.end = time.Now()
	h1, err := g.health()
	if err != nil {
		return nil, err
	}
	var acks, waits, execs []float64
	var httpReqs, throttled int
	for _, r := range results {
		p.reqs = append(p.reqs, r.reqs...)
		acks = append(acks, r.acks...)
		g.jobs = append(g.jobs, r.jobs...)
		httpReqs += r.httpReqs
		throttled += r.throttled
		for _, j := range r.jobs {
			waits = append(waits, j.Started.Sub(j.Submitted).Seconds())
			execs = append(execs, j.Finished.Sub(j.Started).Seconds())
		}
	}
	p.counts = map[string]float64{
		"service.submit_ack_p50_s": median(acks),
		"service.queue_wait_p50_s": median(waits),
		"service.exec_p50_s":       median(execs),
		"service.throttled":        float64(throttled),
	}
	if n := float64(len(p.reqs)); n > 0 {
		p.counts["service.requests"] = float64(httpReqs) / n
		p.counts["ledger.records"] = (h1.LedgerSeq - h0.LedgerSeq) / n
		p.counts["journal.bytes"] = (h1.JournalBytes - h0.JournalBytes) / n
	}
	return p, nil
}

// clientResult is what one analyst saw in a phase.
type clientResult struct {
	reqs                []request
	acks                []float64 // submit → 202, seconds
	jobs                []service.Job
	httpReqs, throttled int
}

// client1 is one analyst's closed loop.
func (g *gateway) client1(c int, deadline time.Time, rec *recorder) clientResult {
	var out clientResult
	// do issues one API call; 429 and 503 responses are throttling: the
	// call is retried and the response counted, not failed.
	do := func(method, path string, body, v any) error {
		for {
			out.httpReqs++
			status, err := g.call(method, path, body, v)
			if err != nil {
				return err
			}
			switch status {
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				out.throttled++
				time.Sleep(50 * time.Millisecond)
				continue
			case http.StatusOK, http.StatusAccepted:
				return nil
			}
			return fmt.Errorf("%s %s: status %d", method, path, status)
		}
	}
	for n := 0; time.Now().Before(deadline); n++ {
		tenant := gatewayTenants[(c+gatewayClients*n)%len(gatewayTenants)]
		req, root := rec.request()
		t0 := time.Now()
		var job service.Job
		s := rec.begin("submit", req, root)
		err := do("POST", "/v1/queries", map[string]string{"tenant": tenant, "source": countQuery}, &job)
		rec.end(s)
		ack := time.Since(t0)
		var r request
		if err == nil {
			s = rec.begin("poll", req, root)
			err = g.await(job.ID, do)
			rec.end(s)
		}
		if err == nil {
			s = rec.begin("fetch", req, root)
			err = do("GET", "/v1/queries/"+job.ID+"/result", nil, &job)
			rec.end(s)
		}
		r.latency = time.Since(t0)
		rec.end(root)
		switch {
		case err != nil:
			r.err = fmt.Errorf("%s: %w", tenant, err)
		case job.State != service.JobDone:
			r.err = fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
		case len(job.Outputs) != 1 || job.AcceptedInputs != gatewayDevices || job.SpentEpsilon != countEpsilon:
			r.err = fmt.Errorf("job %s: outputs %v, accepted %d, spent ε %g", job.ID, job.Outputs, job.AcceptedInputs, job.SpentEpsilon)
		default:
			out.jobs = append(out.jobs, job)
		}
		out.reqs = append(out.reqs, r)
		out.acks = append(out.acks, ack.Seconds())
		if n%4 == 3 && r.err == nil {
			var b ledger.Balance
			var list struct {
				Jobs []service.Job `json:"jobs"`
			}
			if err := do("GET", "/v1/tenants/"+tenant+"/budget", nil, &b); err != nil {
				out.reqs[len(out.reqs)-1].err = err
			} else if err := do("GET", "/v1/queries?tenant="+tenant, nil, &list); err != nil {
				out.reqs[len(out.reqs)-1].err = err
			}
		}
	}
	return out
}

// await polls a job's status until it is terminal.
func (g *gateway) await(id string, do func(method, path string, body, v any) error) error {
	limit := time.Now().Add(2 * time.Minute)
	for time.Now().Before(limit) {
		time.Sleep(pollInterval)
		var st service.Job
		if err := do("GET", "/v1/queries/"+id, nil, &st); err != nil {
			return err
		}
		switch st.State {
		case service.JobDone, service.JobFailed, service.JobCanceled:
			return nil
		}
	}
	return fmt.Errorf("job %s not terminal after 2 minutes", id)
}

// call makes one HTTP request and decodes a 2xx JSON response into v.
func (g *gateway) call(method, path string, body, v any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, g.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if v != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(data, v); err != nil {
			return 0, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

type healthz struct {
	LedgerSeq    float64 `json:"ledger_seq"`
	JournalBytes float64 `json:"journal_bytes"`
}

func (g *gateway) health() (healthz, error) {
	var h healthz
	status, err := g.call("GET", "/healthz", nil, &h)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("/healthz: status %d", status)
	}
	return h, err
}

// finish checks that the ledgers are exact (every tenant spent exactly ε
// per completed job and holds no reservation), stops the gateway, and
// checks every released count against its job's true device data, rebuilt
// from the seed the journal records for the job.
func (g *gateway) finish() []error {
	var errs []error
	done := map[string]int{}
	for _, j := range g.jobs {
		done[j.Tenant]++
	}
	for _, t := range gatewayTenants {
		var b ledger.Balance
		status, err := g.call("GET", "/v1/tenants/"+t+"/budget", nil, &b)
		switch {
		case err != nil || status != http.StatusOK:
			errs = append(errs, fmt.Errorf("budget of %s: status %d, %v", t, status, err))
		case math.Abs(b.EpsSpent-float64(done[t])*countEpsilon) > 1e-9 || b.EpsReserved != 0 || b.Queries != done[t]:
			errs = append(errs, fmt.Errorf("ledger of %s: spent ε %g over %d queries, reserved %g; %d jobs done",
				t, b.EpsSpent, b.Queries, b.EpsReserved, done[t]))
		}
	}
	g.stop()
	errs = append(errs, g.closeErrs...)
	seqs, err := journalSeqs(filepath.Join(g.dir, "budget.wal.jobs"))
	if err != nil {
		return append(errs, err)
	}
	for _, j := range g.jobs {
		seq, ok := seqs[j.ID]
		if !ok {
			errs = append(errs, fmt.Errorf("job %s has no journaled submit", j.ID))
			continue
		}
		truth, err := gatewayTruth(g.seed + int64(seq))
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if err := checkLaplace("job "+j.ID+" count", j.Outputs[0], truth, truth, 1, countEpsilon); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// gatewayTruth rebuilds a job's deployment from its seed, as the service
// does, and counts its category-0 devices.
func gatewayTruth(seed int64) (float64, error) {
	dep, err := runtime.NewDeployment(runtime.Config{
		N: gatewayDevices, Categories: gatewayCategories, CommitteeSize: gatewayCommittee, Seed: seed,
	})
	if err != nil {
		return 0, err
	}
	n := 0.0
	for _, d := range dep.Devices {
		if d.Category == 0 {
			n++
		}
	}
	return n, nil
}

// journalSeqs reads each job's sequence number — its deployment seed offset
// — from the submit records of the job journal (docs/SERVICE.md).
func journalSeqs(path string) (map[string]uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("job journal: %w", err)
	}
	defer f.Close()
	seqs := map[string]uint64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r struct {
			Op     string `json:"op"`
			Job    string `json:"job"`
			JobSeq uint64 `json:"job_seq"`
		}
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("job journal: %w", err)
		}
		if r.Op == "submit" {
			seqs[r.Job] = r.JobSeq
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("job journal: %w", err)
	}
	return seqs, nil
}

// stop shuts the HTTP server and the gateway down, once.
func (g *gateway) stop() {
	g.shutdown.Do(func() {
		g.client.CloseIdleConnections()
		if err := g.hs.Close(); err != nil {
			g.closeErrs = append(g.closeErrs, err)
		}
		<-g.served
		if err := g.srv.Close(); err != nil {
			g.closeErrs = append(g.closeErrs, fmt.Errorf("gateway close: %w", err))
		}
	})
}

func (g *gateway) close() {
	g.stop()
	os.RemoveAll(g.dir)
}
