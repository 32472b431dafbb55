package main

import "strings"

// goLayer takes CPU samples with no frame in the repository's packages: the
// Go runtime (GC, scheduler), and standard-library or benchmark code not
// called from a repository package.
const goLayer = "go"

// layers are the benchmark's layers in reporting order: the repository's
// modules, then goLayer.
var layers = []string{
	"lang", "privacy", "planner", "costmodel", "bgv",
	"runtime", "sortition", "ahe", "zkp", "merkle",
	"shamir", "vsr", "mpc", "mechanism", "fixed",
	"parallel", "service", "ledger", "wal", goLayer,
}

// packageLayer maps every package under internal/ to its layer. Helper
// packages join the layer that calls them on the measured paths.
var packageLayer = map[string]string{
	"lang":      "lang",
	"queries":   "lang", // query sources, parsed by lang
	"privacy":   "privacy",
	"types":     "privacy", // type inference feeding the certifier
	"planner":   "planner",
	"plan":      "planner",
	"eval":      "planner", // paper experiments over the planner
	"baseline":  "planner", // comparison systems priced by the planner
	"costmodel": "costmodel",
	"bgv":       "bgv",
	"runtime":   "runtime",
	"faults":    "runtime", // fault schedules the runtime consults
	"benchrand": "runtime", // the fault engine's deterministic stream
	"sortition": "sortition",
	"ahe":       "ahe",
	"zkp":       "zkp",
	"merkle":    "merkle",
	"hashing":   "merkle", // digest framing for trees, tickets and proofs
	"shamir":    "shamir",
	"vsr":       "vsr",
	"mpc":       "mpc",
	"mechanism": "mechanism",
	"fixed":     "fixed",
	"parallel":  "parallel",
	"service":   "service",
	"ledger":    "ledger",
	"wal":       "wal",
}

const internalPrefix = "arboretum/internal/"

// layerOfFunc returns the layer of a profiled function name such as
// "arboretum/internal/ahe.(*PublicKey).Encrypt", or "" when the function is
// outside the repository's internal packages.
func layerOfFunc(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return packageLayer[rest]
}
