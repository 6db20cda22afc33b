// Command perfbench is the repository's benchmark: it runs one workload of
// the retiming program through its public entry points, checks every output
// independently of the retimer, and prints its metrics as one JSON line.
//
//	perfbench --workload table2|deep|service --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics, measured with tracing
// off; with --trace 1 it prints the per-layer metrics of a traced run and
// writes that run's spans as Chrome-trace JSON under .bench_build/perfbench/.
// Every workload prints the same metric names; figures that only one
// workload has go on the info line before the result. NOTES.md beside this
// file explains the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Config is one run's settings.
type Config struct {
	Workload string
	Seed     int64
	Seconds  time.Duration // length of the timed phase
	Trace    bool
	// Small shrinks every input so the self-tests run each workload in a
	// few seconds. The printed metric set is the same.
	Small bool
	// WorkDir holds the daemon's result store during a run and receives
	// the Chrome-trace file of a traced run.
	WorkDir string
}

// Metric is one named measurement with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line a run prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Host is the host profile recorded with every run.
type Host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// Design is one input of a run as recorded in its output.
type Design struct {
	Name   string `json:"name"`
	Size   Size   `json:"size"`
	Digest string `json:"digest,omitempty"`
}

// Info is the line printed before the result: what ran, where, on what.
type Info struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    bool     `json:"trace"`
	Host     Host     `json:"host"`
	Designs  []Design `json:"designs"`
	// StealFrac is the share of the machine's CPU time the hypervisor took
	// during the run (/proc/stat "steal"): a run with a high share was
	// measured on a contended host.
	StealFrac float64  `json:"steal_frac"`
	Errors    []string `json:"errors,omitempty"`
	TraceFile string   `json:"trace_file,omitempty"`
	// RawWall holds the timings the result reports net of steal (see
	// clock.go) as the wall clock read them.
	RawWall map[string]float64 `json:"raw_wall,omitempty"`
	// Latency gives each latency class's sample count and the percentile
	// its tail sits at (raw wall milliseconds).
	Latency map[string]Summary `json:"latency,omitempty"`
	// Extra holds the workload's own figures beyond the shared metric set,
	// such as the service's tail latencies and per-stage split.
	Extra map[string]Metric `json:"extra,omitempty"`
}

// Outcome is what a workload hands back to main.
type Outcome struct {
	Metrics   map[string]Metric
	Attempted int
	Failed    int
	Designs   []Design
	Errs      []error
	TraceFile string
	Raw       map[string]float64 // raw wall-clock values of net timings
	Latency   map[string]Summary // latency classes, raw wall ms
	Extra     map[string]Metric  // the workload's own figures, for the info line
}

// put records one of the metrics every workload prints.
func (o *Outcome) put(name, unit string, v float64) {
	if o.Metrics == nil {
		o.Metrics = map[string]Metric{}
	}
	o.Metrics[name] = Metric{Value: v, Unit: unit}
}

// extra records a figure only this workload has.
func (o *Outcome) extra(name, unit string, v float64) {
	if o.Extra == nil {
		o.Extra = map[string]Metric{}
	}
	o.Extra[name] = Metric{Value: v, Unit: unit}
}

var workloads = map[string]func(Config) (*Outcome, error){
	"table2":  runTable2,
	"deep":    runDeep,
	"service": runService,
}

func main() {
	var cfg Config
	var seconds, traceFlag int
	flag.StringVar(&cfg.Workload, "workload", "", "table2, deep or service")
	flag.Int64Var(&cfg.Seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 35, "length of the timed phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	run, ok := workloads[cfg.Workload]
	if !ok || seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload table2|deep|service --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg.Seconds = time.Duration(seconds) * time.Second
	cfg.Trace = traceFlag == 1
	cfg.WorkDir = ".bench_build/perfbench"
	runtime.GOMAXPROCS(runtime.NumCPU())

	steal0, total0 := cpuTicks()
	out, err := run(cfg)
	steal1, total1 := cpuTicks()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := checkDigests(cfg, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	info := Info{Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds.Seconds(),
		Trace: cfg.Trace, Host: host(), Designs: out.Designs, TraceFile: out.TraceFile, RawWall: out.Raw,
		Latency: out.Latency, Extra: out.Extra}
	if total1 > total0 {
		info.StealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	for _, e := range out.Errs {
		info.Errors = append(info.Errors, e.Error())
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	res := Result{Correct: out.Failed == 0 && len(out.Errs) == 0, Attempted: out.Attempted,
		Failed: out.Failed, Metrics: out.Metrics}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(info); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
}

// cpuTicks reads the machine's cumulative steal and total CPU ticks from
// /proc/stat; both are 0 where it cannot be read.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user … steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func host() Host {
	return Host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
}

// checkDigests compares this run's output digests with those earlier runs
// of the same benchmark binary recorded for the same workload, seed and
// design, in WorkDir/digests.json, and records the new ones. A digest that
// differs is a failed output.
func checkDigests(cfg Config, out *Outcome) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return fmt.Errorf("hash %s: %w", exe, err)
	}
	build := hex.EncodeToString(h.Sum(nil)[:8])

	path := filepath.Join(cfg.WorkDir, "digests.json")
	seen := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &seen); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	for _, d := range out.Designs {
		key := fmt.Sprintf("%s/%s/%d/%s", build, cfg.Workload, cfg.Seed, d.Name)
		if prev, ok := seen[key]; ok && prev != d.Digest {
			out.Failed++
			out.Errs = append(out.Errs, fmt.Errorf("%s: output digest %s differs from %s in an earlier run of this build", d.Name, d.Digest, prev))
		}
		seen[key] = d.Digest
	}
	if m, ok := out.Metrics["ok_frac"]; ok {
		m.Value = float64(out.Attempted-out.Failed) / float64(out.Attempted)
		out.Metrics["ok_frac"] = m
	}
	data, err := json.Marshal(seen)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
