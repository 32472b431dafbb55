package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestWorkloadsSmoke runs every workload at a tiny size, untraced and
// traced, and checks that the run is correct and prints exactly the metrics
// BENCHMARK.json declares for its mode, with their declared units.
func TestWorkloadsSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	declared := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bf.EndToEnd {
		declared[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		declared[true][m.Name] = m.Unit
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json declares unknown workload %s", w.Name)
		}
	}
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := &config{
				workload: w.Name, seed: 7, seconds: 100 * time.Millisecond, trace: traced,
				size: tinySize, outDir: t.TempDir(), log: io.Discard,
			}
			rep, err := execute(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			var out bytes.Buffer
			if err := rep.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for name, m := range res.Metrics {
				unit, ok := declared[traced][name]
				switch {
				case !metricName.MatchString(name):
					t.Errorf("%s: metric name %q", w.Name, name)
				case !ok:
					t.Errorf("%s trace=%v: metric %s is not declared in BENCHMARK.json", w.Name, traced, name)
				case unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, declared %q", w.Name, name, m.Unit, unit)
				case m.Value == nil:
					t.Errorf("%s: metric %s has no value", w.Name, name)
				case !traced && *m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.Name, name, *m.Value)
				}
			}
			for name := range declared[traced] {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: declared metric %s not printed", w.Name, traced, name)
				}
			}
		}
	}
}
