package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"arboretum/internal/queries"
	"arboretum/internal/runtime"
)

// corpus is one analyst running the paper's ten evaluation queries in
// order, pass after pass, on small deployments: one per category width,
// built at set-up. Few devices, but every vignette type runs, so the
// committee path (VSR hand-offs, threshold decryption, MPC comparisons,
// noise) dominates. A run measures whole passes: it starts passes until
// --seconds have passed.
type corpus struct {
	queries []corpusQuery
	deps    map[int]*corpusDeployment // by category width
}

// The shape TestAllEvaluationQueriesExecute proves every query runs at.
const (
	corpusDevices  = 64
	corpusMaxWidth = 16
)

type corpusQuery struct {
	name, src string
	width     int
	check     func(outs, hist []float64, sampled int) error
}

type corpusDeployment struct {
	dep  *runtime.Deployment
	hist []float64 // true devices per category
}

func setupCorpus(cfg *config, rec *recorder) (instance, error) {
	c := &corpus{deps: map[int]*corpusDeployment{}}
	for _, q := range queries.All {
		if cfg.size.corpusQueries != nil && !slices.Contains(cfg.size.corpusQueries, q.Name) {
			continue
		}
		check, ok := corpusChecks[q.Name]
		if !ok {
			return nil, fmt.Errorf("no output check for query %s", q.Name)
		}
		width := int(min(q.Categories, corpusMaxWidth))
		c.queries = append(c.queries, corpusQuery{name: q.Name, src: shrinkQuery(q.Source), width: width, check: check})
		if c.deps[width] != nil {
			continue
		}
		cats := zipfCategories(subSeed(cfg.seed, fmt.Sprintf("corpus-data-%d", width)), corpusDevices, width)
		s := rec.begin("setup", 0, 0)
		dep, err := runtime.NewDeployment(runtime.Config{
			N: corpusDevices, Categories: width, CommitteeSize: 5,
			Seed:          subSeed(cfg.seed, "corpus-runtime"),
			BudgetEpsilon: 1e6,
			Data:          func(i int) int { return cats[i] },
		})
		rec.end(s)
		if err != nil {
			return nil, err
		}
		c.deps[width] = &corpusDeployment{dep: dep, hist: histogram(cats, width, nil)}
	}
	return c, nil
}

func (c *corpus) run(deadline time.Time, rec *recorder) (*phase, error) {
	widths := make([]int, 0, len(c.deps))
	for w := range c.deps {
		widths = append(widths, w)
	}
	slices.Sort(widths)
	snapshot := func() []runtime.Metrics {
		out := make([]runtime.Metrics, len(widths))
		for i, w := range widths {
			out[i] = c.deps[w].dep.Metrics
		}
		return out
	}
	before := snapshot()
	p := &phase{start: time.Now()}
	for {
		for _, q := range c.queries {
			p.reqs = append(p.reqs, c.request(q, rec))
		}
		if !time.Now().Before(deadline) {
			break
		}
	}
	p.end = time.Now()
	p.counts = metricsDelta(before, snapshot(), len(p.reqs), corpusDevices)
	return p, nil
}

// request certifies one query, runs it, and checks the released outputs
// against the truth from the generated data.
func (c *corpus) request(q corpusQuery, rec *recorder) request {
	d := c.deps[q.width]
	req, root := rec.request()
	defer rec.end(root)
	t0 := time.Now()
	s := rec.begin("certify", req, root)
	cert, err := runtime.Certify(q.src, corpusDevices, q.width)
	rec.end(s)
	if err != nil {
		return request{latency: time.Since(t0), err: fmt.Errorf("%s: certify: %w", q.name, err)}
	}
	eps0, _ := d.dep.Budget.Remaining()
	s = rec.begin("run", req, root)
	res, err := d.dep.Run(q.src, runtime.RunOptions{})
	rec.end(s)
	r := request{latency: time.Since(t0)}
	if err != nil {
		r.err = fmt.Errorf("%s: run: %w", q.name, err)
		return r
	}
	eps1, _ := d.dep.Budget.Remaining()
	outs := make([]float64, len(res.Outputs))
	for i, o := range res.Outputs {
		outs[i] = o.Float()
	}
	switch {
	case res.Accepted != corpusDevices:
		r.err = fmt.Errorf("%s: accepted %d inputs of %d devices", q.name, res.Accepted, corpusDevices)
	case math.Abs((eps0-eps1)-cert.Epsilon) > 1e-9 || res.Certificate.Epsilon != cert.Epsilon:
		r.err = fmt.Errorf("%s: charged ε %g, certified %g", q.name, eps0-eps1, cert.Epsilon)
	default:
		if err := q.check(outs, d.hist, res.Sampled); err != nil {
			r.err = fmt.Errorf("%s: %w", q.name, err)
		}
	}
	return r
}

func (c *corpus) finish() []error { return nil }

func (c *corpus) close() {}

// corpusChecks check each evaluation query's released outputs (in output()
// order) against the true category histogram. Sensitivities and ε are the
// queries' own (internal/queries); every noisy release must fall within its
// mechanism's failProb bound.
var corpusChecks = map[string]func(outs, hist []float64, sampled int) error{
	"top1": func(outs, hist []float64, _ int) error {
		if len(outs) != 1 {
			return fmt.Errorf("%d outputs, want 1", len(outs))
		}
		return checkPick("result", outs[0], hist, 1, 1, 0.1)
	},
	"topK": func(outs, hist []float64, _ int) error {
		if len(outs) != 5 {
			return fmt.Errorf("%d outputs, want 5", len(outs))
		}
		seen := map[float64]bool{}
		for i, o := range outs {
			if seen[o] {
				return fmt.Errorf("best[%d] = %g repeats an earlier pick", i, o)
			}
			seen[o] = true
			// Each pick spends at most ε/k of the query's ε = 0.1.
			if err := checkPick(fmt.Sprintf("best[%d]", i), o, hist, 5, 1, 0.1/5); err != nil {
				return err
			}
		}
		return nil
	},
	"gap": func(outs, hist []float64, _ int) error {
		if len(outs) != 2 {
			return fmt.Errorf("%d outputs, want 2", len(outs))
		}
		if err := checkPick("winner", outs[0], hist, 1, 1, 0.1); err != nil {
			return err
		}
		// best and second are both max(aggr), so the clipped gap is 0;
		// the difference of two maxima has sensitivity 2.
		return checkLaplace("gap", outs[1], 0, 0, 2, 0.1)
	},
	"auction": func(outs, hist []float64, _ int) error {
		if len(outs) != 1 {
			return fmt.Errorf("%d outputs, want 1", len(outs))
		}
		n := len(hist)
		revenue := make([]float64, n)
		atLeast := 0.0
		for p := n - 1; p >= 0; p-- {
			atLeast += hist[p]
			revenue[p] = float64(p) * atLeast
		}
		// One bid moves revenue[p] by at most p.
		return checkPick("price", outs[0], revenue, 1, float64(max(n-1, 1)), 0.1)
	},
	"hypotest": func(outs, hist []float64, _ int) error {
		if len(outs) != 3 {
			return fmt.Errorf("%d outputs, want 3", len(outs))
		}
		reject, accept, statistic := outs[0], outs[1], outs[2]
		c := statistic + 30 // the shrunken threshold
		if err := checkLaplace("count", c, hist[0], hist[0], 1, 0.1); err != nil {
			return err
		}
		want := 0.0
		if c > 30 {
			want = 1
		}
		if reject != want || accept != 1-want {
			return fmt.Errorf("reject/accept = %g/%g for statistic %g", reject, accept, statistic)
		}
		return nil
	},
	"secrecy": func(outs, _ []float64, sampled int) error {
		if len(outs) != 4 {
			return fmt.Errorf("%d outputs, want 4", len(outs))
		}
		scaled, low, high, inrange := outs[0], outs[1], outs[2], outs[3]
		if err := checkLaplace("sampled count", scaled/100, float64(sampled), float64(sampled), 1, 1.0); err != nil {
			return err
		}
		if !near(low, scaled-2000) || !near(high, scaled+2000) || inrange != 1 {
			return fmt.Errorf("low/high/inrange = %g/%g/%g for scaled %g", low, high, inrange, scaled)
		}
		return nil
	},
	"median": func(outs, hist []float64, _ int) error {
		if len(outs) != 1 {
			return fmt.Errorf("%d outputs, want 1", len(outs))
		}
		util := make([]float64, len(hist))
		rank := 0.0
		for i, h := range hist {
			rank += h
			util[i] = math.Max(-math.Abs(rank-32), -1024) + 1024 // the shrunken half and clip
		}
		return checkPick("median", outs[0], util, 1, 1, 0.1)
	},
	"cms": func(outs, hist []float64, _ int) error {
		if len(outs) != 2 {
			return fmt.Errorf("%d outputs, want 2", len(outs))
		}
		if !near(outs[1], outs[0]) {
			return fmt.Errorf("c + 0 = %g, c = %g", outs[1], outs[0])
		}
		return checkLaplace("sketch", outs[0], hist[0], hist[0], 1, 0.1)
	},
	"bayes": func(outs, hist []float64, _ int) error {
		if len(outs) != len(hist)+1 {
			return fmt.Errorf("%d outputs, want %d", len(outs), len(hist)+1)
		}
		sum := 0.0
		for i, h := range hist {
			if err := checkLaplace(fmt.Sprintf("count[%d]", i), outs[i+1], h, h, 1, 0.1); err != nil {
				return err
			}
			sum += outs[i+1]
		}
		if !near(outs[0], sum) {
			return fmt.Errorf("norm = %g, sum of releases %g", outs[0], sum)
		}
		return nil
	},
	"k-medians": func(outs, hist []float64, _ int) error {
		if len(outs) != len(hist)+1 {
			return fmt.Errorf("%d outputs, want %d", len(outs), len(hist)+1)
		}
		sum := 0.0
		for i, h := range hist {
			if err := checkLaplace(fmt.Sprintf("size[%d]", i), outs[i], h, h, 1, 0.1); err != nil {
				return err
			}
			sum += outs[i]
		}
		if !near(outs[len(hist)], sum) {
			return fmt.Errorf("total = %g, sum of sizes %g", outs[len(hist)], sum)
		}
		return nil
	},
}
