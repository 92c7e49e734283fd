package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the
// workloads (less the ungated ones) and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		if _, skip := ungated[n]; !skip {
			want = append(want, n)
		}
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics, program reports %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d] = %+v, program reports %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// buildDaemon builds ecrpqd from the enclosing module.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ecrpqd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/ecrpqd").CombinedOutput(); err != nil {
		t.Fatalf("build ecrpqd: %v\n%s", err, out)
	}
	return bin
}

type runResult struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// runBench runs the benchmark in-process and decodes its last line.
func runBench(t *testing.T, wantCode int, args ...string) (runResult, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != wantCode {
		t.Fatalf("run %v: exit %d, want %d\nstderr:\n%s", args, code, wantCode, stderr.String())
	}
	var r runResult
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last stdout line: %v\n%s", err, stdout.String())
	}
	return r, stderr.String()
}

// TestShortMode runs every workload briefly, traced, through the
// correctness check, and checks that each loads its intended layer.
func TestShortMode(t *testing.T) {
	if testing.Short() {
		t.Skip("boots ecrpqd")
	}
	bin := buildDaemon(t)
	work := t.TempDir()
	for _, w := range []string{"serve-hot", "serve-churn", "cold-analytic"} {
		t.Run(w, func(t *testing.T) {
			r, _ := runBench(t, 0, "-workload", w, "-seconds", "1", "-trace", "1", "-ecrpqd", bin, "-work", work, "-golden", "testdata/golden.json")
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(perLayer) {
				t.Errorf("%d metrics, want the %d per-layer ones", len(r.Metrics), len(perLayer))
			}
			m := func(name string) float64 { return r.Metrics[name].Value }
			switch w {
			case "serve-hot":
				if m("qcache.hit_frac") < 0.8 {
					t.Errorf("qcache.hit_frac = %v, want mostly hits", m("qcache.hit_frac"))
				}
			case "serve-churn":
				if m("qcache.incremental_frac") == 0 || m("graph.crash_restart_ms") == 0 {
					t.Errorf("incremental_frac %v, crash_restart_ms %v: want both > 0", m("qcache.incremental_frac"), m("graph.crash_restart_ms"))
				}
			case "cold-analytic":
				if m("qcache.hit_frac") != 0 || m("qcache.compute_frac") != 1 {
					t.Errorf("hit_frac %v, compute_frac %v: want every read computed", m("qcache.hit_frac"), m("qcache.compute_frac"))
				}
			}
		})
	}
}

// TestTamperedGoldenFails checks that a committed reference fingerprint
// that no longer matches the engine fails the run.
func TestTamperedGoldenFails(t *testing.T) {
	if testing.Short() {
		t.Skip("boots ecrpqd")
	}
	g, err := readGolden("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	fps := g["cold-analytic"]
	if len(fps) == 0 {
		t.Fatal("no cold-analytic golden fingerprints")
	}
	fps[len(fps)/2] = "0123456789abcdef"
	tampered := filepath.Join(t.TempDir(), "golden.json")
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tampered, b, 0o644); err != nil {
		t.Fatal(err)
	}
	r, stderr := runBench(t, 3, "-workload", "cold-analytic", "-seconds", "0.5", "-ecrpqd", buildDaemon(t),
		"-work", t.TempDir(), "-golden", tampered)
	if r.Correct || !strings.Contains(stderr, "committed golden") {
		t.Fatalf("tampered golden: correct=%v\nstderr:\n%s", r.Correct, stderr)
	}
}
