package main

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"arboretum"
	"arboretum/internal/queries"
	"arboretum/internal/runtime"
)

// planning is an analyst planning the ten evaluation queries at paper scale
// (N = 10^9, the paper's category widths), in order and again: each query
// once through arboretum.Plan with the FHE costs calibrated on a BGV ring —
// the path `arboretum plan -ring paper` takes, and the only one that reaches
// bgv — and once on the reference cost model, where the planner's search is
// nearly all of the work.
type planning struct {
	ring    string
	queries []planQuery
	// choices are the reference model's first plan choices per query; the
	// reference model is deterministic, so every later plan must match.
	choices map[string]map[string]string
	// prefixes are the plan prefixes the first reference search of each
	// query explored.
	prefixes map[string]int64
}

type planQuery struct {
	name, src  string
	categories int64
}

const paperN = 1_000_000_000

// setupPlan loads the queries and certifies each at paper scale, the step
// an analyst takes once before planning them.
func setupPlan(cfg *config, rec *recorder) (instance, error) {
	w := &planning{ring: cfg.size.planRing, choices: map[string]map[string]string{}, prefixes: map[string]int64{}}
	for _, q := range queries.All {
		if cfg.size.planQueries != nil && !slices.Contains(cfg.size.planQueries, q.Name) {
			continue
		}
		s := rec.begin("certify", 0, 0)
		_, err := runtime.Certify(q.Source, paperN, int(q.Categories))
		rec.end(s)
		if err != nil {
			return nil, fmt.Errorf("%s: certify: %w", q.Name, err)
		}
		w.queries = append(w.queries, planQuery{name: q.Name, src: q.Source, categories: q.Categories})
	}
	return w, nil
}

func (w *planning) run(deadline time.Time, rec *recorder) (*phase, error) {
	p := &phase{start: time.Now()}
	for i := 0; time.Now().Before(deadline); i++ {
		q := w.queries[i%len(w.queries)]
		r, n := w.request(q, rec)
		p.reqs = append(p.reqs, r)
		if _, ok := w.prefixes[q.name]; !ok && r.err == nil {
			w.prefixes[q.name] = n
		}
	}
	p.end = time.Now()
	// The mean over every query planned so far in the run, so the figure
	// does not depend on where in the query list a phase stopped.
	var sum float64
	for _, n := range w.prefixes {
		sum += float64(n)
	}
	p.counts = map[string]float64{}
	if len(w.prefixes) > 0 {
		p.counts["planner.prefixes"] = sum / float64(len(w.prefixes))
	}
	return p, nil
}

// request plans one query on the calibrated ring (the timed request) and
// on the reference model, checks both plans, and returns the reference
// search's explored prefixes.
func (w *planning) request(q planQuery, rec *recorder) (request, int64) {
	req, root := rec.request()
	defer rec.end(root)
	t0 := time.Now()
	s := rec.begin("certify", req, root)
	_, err := runtime.Certify(q.src, paperN, int(q.categories))
	rec.end(s)
	if err != nil {
		return request{latency: time.Since(t0), err: fmt.Errorf("%s: certify: %w", q.name, err)}, 0
	}
	preq := arboretum.PlanRequest{
		Name: q.name, Source: q.src, N: paperN, Categories: q.categories,
		Limits: arboretum.DefaultLimits(),
	}
	ringReq := preq
	ringReq.Ring = w.ring
	s = rec.begin("plan-ring", req, root)
	ring, err := arboretum.Plan(ringReq)
	rec.end(s)
	r := request{latency: time.Since(t0)}
	if err != nil {
		r.err = fmt.Errorf("%s: ring plan: %w", q.name, err)
		return r, 0
	}
	s = rec.begin("plan-reference", req, root)
	ref, err := arboretum.Plan(preq)
	rec.end(s)
	if err != nil {
		r.err = fmt.Errorf("%s: reference plan: %w", q.name, err)
		return r, 0
	}
	if err := withinLimits(ring); err != nil {
		r.err = fmt.Errorf("%s: ring plan: %w", q.name, err)
	} else if err := withinLimits(ref); err != nil {
		r.err = fmt.Errorf("%s: reference plan: %w", q.name, err)
	} else if first, ok := w.choices[q.name]; !ok {
		w.choices[q.name] = ref.Choices
	} else if !maps.Equal(first, ref.Choices) {
		r.err = fmt.Errorf("%s: reference plan chose %v, earlier %v", q.name, ref.Choices, first)
	}
	return r, ref.PrefixesExplored
}

// withinLimits checks a plan against arboretum.DefaultLimits, the limits it
// was planned under.
func withinLimits(p *arboretum.PlanResult) error {
	l := arboretum.DefaultLimits()
	switch {
	case p.Epsilon <= 0:
		return fmt.Errorf("ε = %g", p.Epsilon)
	case p.AggregatorCoreHours > l.AggregatorCoreHours:
		return fmt.Errorf("aggregator %g core-hours > %g", p.AggregatorCoreHours, l.AggregatorCoreHours)
	case p.DeviceMaxCPU > l.DeviceMaxCPU:
		return fmt.Errorf("device max CPU %gs > %gs", p.DeviceMaxCPU, l.DeviceMaxCPU)
	case p.DeviceMaxGB*1e9 > l.DeviceMaxBytes:
		return fmt.Errorf("device max %g GB > %g B", p.DeviceMaxGB, l.DeviceMaxBytes)
	}
	return nil
}

func (w *planning) finish() []error { return nil }

func (w *planning) close() {}
