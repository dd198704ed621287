package gasf_test

import (
	"go/build"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// module is this repository's module path (go.mod).
const module = "gasf"

// importClosure returns every package of this module that pkg (a module
// import path) reaches through non-test imports, pkg included. It reads
// the source with go/build's ImportDir, so it needs neither the go
// command nor the network.
func importClosure(t *testing.T, pkg string) map[string]bool {
	t.Helper()
	seen := map[string]bool{}
	var walk func(path string)
	walk = func(path string) {
		if seen[path] {
			return
		}
		seen[path] = true
		p, err := build.ImportDir(filepath.FromSlash("."+strings.TrimPrefix(path, module)), 0)
		if err != nil {
			t.Fatalf("import %s: %v", path, err)
		}
		for _, imp := range p.Imports {
			if imp == module || strings.HasPrefix(imp, module+"/") {
				walk(imp)
			}
		}
	}
	walk(pkg)
	return seen
}

// TestLayering pins the package layering: the serving binary links no
// simulation, benchmark or trace-generation code, the session core knows
// neither transport, and the engine knows neither the wire nor the
// server.
func TestLayering(t *testing.T) {
	cases := []struct {
		pkg       string
		forbidden []string // path prefixes under the module
	}{
		{"cmd/gasf-server", []string{"internal/experiments", "internal/bench", "internal/trace", "internal/conform"}},
		{"internal/session", []string{"internal/server", "internal/broker"}},
		{"internal/core", []string{"internal/wire", "internal/server"}},
	}
	for _, c := range cases {
		t.Run(c.pkg, func(t *testing.T) {
			closure := importClosure(t, module+"/"+c.pkg)
			var bad []string
			for dep := range closure {
				for _, f := range c.forbidden {
					if p := module + "/" + f; dep == p || strings.HasPrefix(dep, p+"/") {
						bad = append(bad, dep)
					}
				}
			}
			sort.Strings(bad)
			if len(bad) > 0 {
				t.Errorf("%s depends on %s (%d packages in its closure)", c.pkg, strings.Join(bad, ", "), len(closure))
			}
		})
	}
}
