package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"

	"arboretum/internal/runtime"
)

// subSeed derives an independent seed for one purpose from the workload
// seed, so each generated input depends on the workload seed alone and
// changing how one input is drawn leaves the others as they were.
func subSeed(seed int64, purpose string) int64 {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	z := uint64(seed) ^ h.Sum64()
	z += 0x9e3779b97f4a7c15 // splitmix64 finalizer
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// zipfCategories draws each device's category from a Zipf law over the
// categories, so a few categories hold most devices as in real telemetry.
func zipfCategories(seed int64, devices, categories int) []int {
	out := make([]int, devices)
	if categories < 2 {
		return out
	}
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.2, 1, uint64(categories-1))
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// pickDevices returns k distinct device indices chosen by the seed.
func pickDevices(seed int64, devices, k int) []int {
	return rand.New(rand.NewSource(seed)).Perm(devices)[:k]
}

// histogram counts the devices in each category, skipping excluded ones.
func histogram(cats []int, categories int, excluded map[int]bool) []float64 {
	h := make([]float64, categories)
	for i, c := range cats {
		if !excluded[i] {
			h[c]++
		}
	}
	return h
}

// failProb bounds the chance that a correct release fails its check.
const failProb = 1e-9

// laplaceBound is the distance a Laplace release exceeds with probability
// failProb: P(|X| > t) = exp(-t·ε/Δ).
func laplaceBound(sens, eps float64) float64 { return sens / eps * math.Log(1/failProb) }

// emBound is how far below the best utility an exponential-mechanism pick
// falls with probability at most failProb (McSherry & Talwar); the 2Δ/ε form
// also covers the Gumbel-noise variant.
func emBound(sens, eps float64, outcomes int) float64 {
	return 2 * sens / eps * (math.Log(float64(outcomes)) + math.Log(1/failProb))
}

// checkLaplace checks a noisy release against the true value range
// [lo, hi] (a single value when lo == hi).
func checkLaplace(what string, got, lo, hi, sens, eps float64) error {
	b := laplaceBound(sens, eps)
	if got < lo-b || got > hi+b {
		return fmt.Errorf("%s = %g, truth in [%g, %g], noise bound %g", what, got, lo, hi, b)
	}
	return nil
}

// checkPick checks an exponential-mechanism pick: a valid outcome whose
// utility is within the mechanism's bound of the k-th best (k = 1 for a
// single pick).
func checkPick(what string, got float64, util []float64, k int, sens, eps float64) error {
	i := int(got)
	if float64(i) != got || i < 0 || i >= len(util) {
		return fmt.Errorf("%s = %g is not an outcome index in [0, %d)", what, got, len(util))
	}
	sorted := append([]float64(nil), util...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	if kth := sorted[k-1]; util[i] < kth-emBound(sens, eps, len(util)) {
		return fmt.Errorf("%s picked utility %g, %d-th best %g, bound %g", what, util[i], k, kth, emBound(sens, eps, len(util)))
	}
	return nil
}

// near compares values the program derives from its releases in Q30.16
// fixed point.
func near(a, b float64) bool { return math.Abs(a-b) <= 1e-3*math.Max(1, math.Abs(b)) }

// shrinkQuery adapts the evaluation queries' constants, sized for 10^9
// devices, to a 64-device deployment (the same substitutions the runtime's
// whole-corpus test makes).
func shrinkQuery(src string) string {
	return strings.NewReplacer(
		"threshold = 500000", "threshold = 30",
		"half = total / 2", "half = 32",
		"-1073741824", "-1024",
		"1073741824", "1024",
	).Replace(src)
}

// countQuery is the gateway's and ingest's release: a Laplace count of
// category 0 at ε = 1.
const countQuery = `aggr = sum(db);
count = laplace(aggr[0], 1.0);
output(declassify(count));`

// countEpsilon is countQuery's certified ε.
const countEpsilon = 1.0

// metricsDelta reports the runtime counters the deployments accumulated
// between two readings, per query, as per-layer metrics. devices is the
// deployment size every query ran at.
func metricsDelta(before, after []runtime.Metrics, queries, devices int) map[string]float64 {
	n := float64(queries)
	if n == 0 {
		return map[string]float64{}
	}
	d := func(field func(m *runtime.Metrics) int64) float64 {
		var sum int64
		for i := range after {
			sum += field(&after[i]) - field(&before[i])
		}
		return float64(sum)
	}
	verified := d(func(m *runtime.Metrics) int64 { return int64(m.ZKPsVerified) })
	rejected := d(func(m *runtime.Metrics) int64 { return int64(m.ZKPsRejected) })
	timeouts := d(func(m *runtime.Metrics) int64 { return int64(m.UploadTimeouts) })
	retries := d(func(m *runtime.Metrics) int64 { return int64(m.UploadRetries) })
	m := map[string]float64{
		"vsr.transfers":                      d(func(m *runtime.Metrics) int64 { return int64(m.VSRTransfers) }) / n,
		"vsr.redeals":                        d(func(m *runtime.Metrics) int64 { return int64(m.VSRRedeals) }) / n,
		"mpc.rounds":                         d(func(m *runtime.Metrics) int64 { return int64(m.MPCRounds) }) / n,
		"mpc.comparisons":                    d(func(m *runtime.Metrics) int64 { return int64(m.MPCComparisons) }) / n,
		"zkp.verified":                       verified / n,
		"zkp.rejected":                       rejected / n,
		"merkle.audits":                      d(func(m *runtime.Metrics) int64 { return int64(m.AuditsServed) }) / n,
		"merkle.audit_failures":              d(func(m *runtime.Metrics) int64 { return int64(m.AuditFailures) }) / n,
		"sortition.committees":               d(func(m *runtime.Metrics) int64 { return int64(m.CommitteesFormed) }) / n,
		"runtime.reassignments":              d(func(m *runtime.Metrics) int64 { return int64(m.Reassignments) }) / n,
		"runtime.upload_retries":             retries / n,
		"runtime.uploads_dropped":            d(func(m *runtime.Metrics) int64 { return int64(m.UploadsDropped) }) / n,
		"runtime.device_bytes_per_device":    d(func(m *runtime.Metrics) int64 { return m.DeviceBytesSent }) / n / float64(devices),
		"runtime.committee_bytes_per_query":  d(func(m *runtime.Metrics) int64 { return m.CommitteeBytes }) / n,
		"runtime.aggregator_bytes_per_query": d(func(m *runtime.Metrics) int64 { return m.AggregatorBytes }) / n,
	}
	if verified > 0 {
		m["zkp.accept_ratio"] = (verified - rejected) / verified
	}
	// Every upload that arrived was verified, and every timed-out attempt
	// was an attempt too.
	if attempts := verified + timeouts; attempts > 0 {
		m["runtime.upload_retry_ratio"] = retries / attempts
	}
	return m
}
