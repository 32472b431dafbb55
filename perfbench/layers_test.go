package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestEveryPackageHasOneLayer fails when a package under internal/ has no
// layer, so a new package cannot silently fall into the go layer's CPU.
func TestEveryPackageHasOneLayer(t *testing.T) {
	root := filepath.Join("..", "internal")
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() || !hasGoSource(t, filepath.Join(root, e.Name())) {
			continue
		}
		found[e.Name()] = true
		layer, ok := packageLayer[e.Name()]
		switch {
		case !ok:
			t.Errorf("internal/%s has no layer in packageLayer", e.Name())
		case layer == goLayer || !slices.Contains(layers, layer):
			t.Errorf("internal/%s maps to %q, not one of the repository layers", e.Name(), layer)
		}
		if l := layerOfFunc(internalPrefix + e.Name() + ".(*T).Method"); l != layer {
			t.Errorf("a function of internal/%s attributes to %q, want %q", e.Name(), l, layer)
		}
	}
	for pkg := range packageLayer {
		if !found[pkg] {
			t.Errorf("packageLayer lists internal/%s, which has no Go package", pkg)
		}
	}
	for _, l := range layers {
		if l == goLayer {
			continue
		}
		n := 0
		for _, pl := range packageLayer {
			if pl == l {
				n++
			}
		}
		if n == 0 {
			t.Errorf("layer %s has no package", l)
		}
	}
	if l := layerOfFunc("net/http.(*conn).serve"); l != "" {
		t.Errorf("a standard-library function attributes to %q", l)
	}
}

func hasGoSource(t *testing.T, dir string) bool {
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f.Name(), ".go") && !strings.HasSuffix(f.Name(), "_test.go") {
			return true
		}
	}
	return false
}
