package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// serviceExtra lists the figures only the service has, which its untraced
// and traced runs put on the info line.
var serviceExtra = [2][]string{
	{"lat_p50_ms.retime", "lat_tail_ms.retime", "lat_p50_ms.explore", "lat_tail_ms.explore"},
	{
		"traced_lat_ms.p50.interactive", "traced_lat_ms.tail.interactive", "traced_lat_ms.p50.sweep", "traced_lat_ms.tail.sweep",
		"admit_ms.p50.interactive", "admit_ms.tail.interactive", "admit_ms.p50.sweep", "admit_ms.tail.sweep",
		"queue_wait_ms.p50.interactive", "queue_wait_ms.tail.interactive", "queue_wait_ms.p50.sweep", "queue_wait_ms.tail.sweep",
		"run_ms.p50.interactive", "run_ms.tail.interactive", "run_ms.p50.sweep", "run_ms.tail.sweep",
		"respond_ms.p50.interactive", "respond_ms.tail.interactive", "respond_ms.p50.sweep", "respond_ms.tail.sweep",
		"loadgen_late_ms", "sent", "done", "failed", "shed_429",
		"store_hit_frac", "store_lookups", "store_saves", "explore_points",
	},
}

type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) (map[string]bool, [2]map[string]string) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	wls := map[string]bool{}
	for _, w := range d.Workloads {
		wls[w.Name] = true
	}
	units := [2]map[string]string{{}, {}}
	for _, m := range d.EndToEnd {
		units[0][m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		units[1][m.Name] = m.Unit
	}
	return wls, units
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks that each prints exactly the metrics BENCHMARK.json declares, with
// the declared units, that time metrics are not zero, and that every output
// passed the correctness gate.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	wls, units := readDeclared(t)
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		if !wls[name] {
			t.Errorf("workload %s missing from BENCHMARK.json", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for mode, traced := range []bool{false, true} {
			cfg := Config{Workload: name, Seed: 3, Seconds: time.Second, Trace: traced,
				Small: true, WorkDir: t.TempDir()}
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				out, err := workloads[name](cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range out.Errs {
					t.Error(e)
				}
				if out.Attempted < 1 || out.Failed != 0 {
					t.Errorf("attempted %d, failed %d", out.Attempted, out.Failed)
				}
				want := units[mode]
				if len(out.Metrics) != len(want) {
					t.Errorf("printed %d metrics, want %d", len(out.Metrics), len(want))
				}
				for m, unit := range want {
					got, ok := out.Metrics[m]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", m)
					case got.Unit != unit:
						t.Errorf("metric %s: unit %q, BENCHMARK.json declares %q", m, got.Unit, unit)
					case (unit == "s" || unit == "ms") && got.Value <= 0:
						t.Errorf("metric %s: time %v, want > 0", m, got.Value)
					}
				}
				if name == "service" {
					for _, m := range serviceExtra[mode] {
						if _, ok := out.Extra[m]; !ok {
							t.Errorf("info figure %s not recorded", m)
						}
					}
				}
				if !traced {
					if f := out.Metrics["ok_frac"].Value; f != 1 {
						t.Errorf("ok_frac = %v, want 1", f)
					}
				} else if _, err := os.Stat(out.TraceFile); err != nil {
					t.Errorf("trace file: %v", err)
				}
				for class, s := range out.Latency {
					if s.N <= 2*minTail || s.Tail < s.P50 {
						t.Errorf("%s latency: %d samples, tail %v (p%.0f) below p50 %v", class, s.N, s.Tail, s.TailPct, s.P50)
					}
				}
				if len(out.Designs) == 0 {
					t.Error("no designs recorded")
				}
				for _, d := range out.Designs {
					if d.Digest == "" || d.Size.Vertices == 0 {
						t.Errorf("design %s: digest %q, size %+v", d.Name, d.Digest, d.Size)
					}
				}
			})
		}
	}
}

func TestDigestsAcrossRuns(t *testing.T) {
	cfg := Config{Workload: "table2", Seed: 7, WorkDir: t.TempDir()}
	run := func(digest string) *Outcome {
		out := &Outcome{Attempted: 2, Designs: []Design{{Name: "C1", Digest: "aa"}, {Name: "C2", Digest: digest}}}
		out.put("ok_frac", "frac", 1)
		if err := checkDigests(cfg, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if out := run("bb"); out.Failed != 0 {
		t.Fatalf("first run: %d failed", out.Failed)
	}
	if out := run("bb"); out.Failed != 0 {
		t.Fatalf("same digests: %d failed", out.Failed)
	}
	out := run("cc")
	if out.Failed != 1 || len(out.Errs) != 1 {
		t.Fatalf("changed digest: failed %d, errs %v", out.Failed, out.Errs)
	}
	if f := out.Metrics["ok_frac"].Value; f != 0.5 {
		t.Errorf("ok_frac %v, want 0.5", f)
	}
}
