package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"mcretiming"
	"mcretiming/internal/blif"
	"mcretiming/internal/core"
	"mcretiming/internal/gen"
	"mcretiming/internal/netlist"
	"mcretiming/internal/trace"
	"mcretiming/internal/xc4000"
)

// setupRounds is how many times a run sets itself up; setup_s is the median.
const setupRounds = 5

// minReps is the least number of rounds a traced run times each front-end
// layer over the inputs.
const minReps = 3

// passNames are the flow's pipeline passes, as the program's trace names them.
var passNames = []string{"build-mcgraph", "bounds", "share", "minperiod", "minarea", "relocate"}

// counterMetrics maps the program's trace counters to per-layer metric names.
var counterMetrics = []struct{ counter, metric string }{
	{"steps-possible", "steps_possible"},
	{"flow-augmentations", "flow_augmentations"},
	{"minarea-rounds", "minarea_rounds"},
	{"justify-local", "justify_local"},
	{"justify-global", "justify_global"},
	{"justify-escalations", "justify_escalations"},
	{"minperiod-probes", "minperiod_probes"},
	{"cuts-generated", "cuts_generated"},
}

// The paper's objective, minimum area at the minimum feasible period; every
// other option stays at the program's default (Parallelism 0 = GOMAXPROCS).
var paperOptions = core.Options{Objective: core.MinAreaAtMinPeriod}

type flowDesign struct {
	name string
	in   *netlist.Circuit
}

// flowOut is one design's result: the output netlist, the period the
// program reported for it, and its §5.2 retry count.
type flowOut struct {
	out      *netlist.Circuit
	reported int64
	retries  int
}

type flowRun func(ctx context.Context, in *netlist.Circuit, sink trace.Sink) (flowOut, error)

// runTable2 is the paper's experiment: the ten-circuit suite through the
// paper's script (decompose sync resets, map, mc-retime, remap).
func runTable2(cfg Config) (*Outcome, error) {
	build := func() ([]flowDesign, error) {
		suite, err := gen.Suite()
		if err != nil {
			return nil, err
		}
		if cfg.Small {
			suite = suite[:3]
		}
		ds := make([]flowDesign, len(suite))
		for i, c := range suite {
			ds[i] = flowDesign{c.Name, c}
		}
		// The suite is fixed by the paper; the seed orders it.
		rand.New(rand.NewSource(cfg.Seed)).Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
		return ds, nil
	}
	run := func(ctx context.Context, in *netlist.Circuit, sink trace.Sink) (flowOut, error) {
		res, err := mcretiming.RunFlowCtx(ctx, in, mcretiming.FlowOptions{Retime: paperOptions, Trace: sink})
		if err != nil {
			return flowOut{}, err
		}
		return flowOut{res.Retimed, res.Report.PeriodAfter, res.Report.Retries}, nil
	}
	return benchFlow(cfg, build, run)
}

// runDeep is the deep scale pipeline through the retimer alone.
func runDeep(cfg Config) (*Outcome, error) {
	width, stages := 32, 300
	if cfg.Small {
		width, stages = 8, 40
	}
	build := func() ([]flowDesign, error) {
		c, err := gen.ScalePipeline(cfg.Seed, width, stages, gen.ClassMix{Plain: 1, EN: 1})
		if err != nil {
			return nil, err
		}
		return []flowDesign{{c.Name, c}}, nil
	}
	return benchFlow(cfg, build, retimeOnly)
}

// retimeOnly runs the retimer alone at the paper's objective.
func retimeOnly(ctx context.Context, in *netlist.Circuit, sink trace.Sink) (flowOut, error) {
	opts := paperOptions
	if sink != nil {
		opts.Trace = sink
	}
	out, rep, err := core.RetimeCtx(ctx, in, opts)
	if err != nil {
		return flowOut{}, err
	}
	return flowOut{out, rep.PeriodAfter, rep.Retries}, nil
}

// rep is one timed pass over a workload's designs.
type rep struct {
	wall     time.Duration
	net      time.Duration // wall net of steal
	peakHeap uint64
	allocs   uint64 // bytes allocated during the pass
	gcs      uint64 // GC cycles completed during the pass
	traced   bool
	recs     []*trace.Recorder // traced passes: one recorder per design
	starts   []time.Time       // traced passes: when each design began
	retries  int
}

// timedPass makes one pass over designs after a forced GC, timing it and
// counting its allocations; sampler, when given, tracks its peak heap. A
// traced pass gives each design its own trace recorder.
func timedPass(ctx context.Context, designs []flowDesign, run flowRun, traced bool, sampler *heapSampler) (rep, []flowOut, []error) {
	r := rep{traced: traced}
	outs := make([]flowOut, len(designs))
	errs := make([]error, len(designs))
	if traced {
		r.recs = make([]*trace.Recorder, len(designs))
		r.starts = make([]time.Time, len(designs))
	}
	runtime.GC()
	allocs0, gcs0 := allocStats()
	if sampler != nil {
		sampler.reset()
	}
	t0 := now()
	for j, d := range designs {
		var sink trace.Sink
		if traced {
			r.recs[j] = trace.NewRecorder()
			r.starts[j] = time.Now()
			sink = r.recs[j]
		}
		outs[j], errs[j] = run(ctx, d.in, sink)
	}
	r.wall, r.net = t0.since()
	if sampler != nil {
		r.peakHeap = sampler.peak()
	}
	allocs1, gcs1 := allocStats()
	r.allocs, r.gcs = allocs1-allocs0, gcs1-gcs0
	for j := range designs {
		if errs[j] == nil {
			r.retries += outs[j].retries
		}
	}
	return r, outs, errs
}

func benchFlow(cfg Config, build func() ([]flowDesign, error), run flowRun) (*Outcome, error) {
	ctx := context.Background()
	o := &Outcome{}
	g := newGate(cfg.Seed)

	// Set-up: generate the inputs and make one untimed warm-up pass, several
	// times. The warm-up outputs of the last round seed the correctness gate.
	var designs []flowDesign
	var warm []flowOut
	var setups, rawSetups []float64
	for i := 0; i < setupRounds; i++ {
		t0 := now()
		ds, err := build()
		if err != nil {
			return nil, err
		}
		outs := make([]flowOut, len(ds))
		for j, d := range ds {
			if outs[j], err = run(ctx, d.in, nil); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", d.name, err)
			}
		}
		wall, net := t0.since()
		setups, rawSetups = append(setups, net.Seconds()), append(rawSetups, wall.Seconds())
		designs, warm = ds, outs
	}
	for j, d := range designs {
		if !g.check(d.name, d.in, warm[j].out, warm[j].reported) {
			o.Failed++
		}
		o.Attempted++
	}

	sampler := startHeapSampler()
	defer sampler.stop()
	var reps []rep
	deadline := time.Now().Add(cfg.Seconds)
	// At least enough passes for the tail to sit at or above the median,
	// however short --seconds is.
	for i := 0; len(reps) <= 2*minTail || time.Now().Before(deadline); i++ {
		r, outs, errs := timedPass(ctx, designs, run, cfg.Trace && i%2 == 1, sampler)
		for j, d := range designs {
			o.Attempted++
			if errs[j] != nil {
				o.Failed++
				o.Errs = append(o.Errs, fmt.Errorf("%s: %w", d.name, errs[j]))
				continue
			}
			if !g.check(d.name, d.in, outs[j].out, outs[j].reported) {
				o.Failed++
			}
		}
		reps = append(reps, r)
	}
	o.Errs = append(o.Errs, g.errs...)

	digests := g.digests()
	var regs, period float64
	for j, d := range designs {
		o.Designs = append(o.Designs, Design{Name: d.name, Size: sizeOf(d.in), Digest: digests[d.name]})
		regs += float64(warm[j].out.NumRegs())
		period += float64(g.periods[d.name])
	}

	if !cfg.Trace {
		var walls, nets, peaks []float64
		for _, r := range reps {
			walls = append(walls, ms(r.wall))
			nets = append(nets, ms(r.net))
			peaks = append(peaks, float64(r.peakHeap)/(1<<20))
		}
		// The unit of work is one pass over the designs.
		pass, err := Summarize(nets)
		if err != nil {
			return nil, fmt.Errorf("pass times: %w", err)
		}
		raw, err := Summarize(walls)
		if err != nil {
			return nil, fmt.Errorf("pass times: %w", err)
		}
		o.put("setup_s", "s", Median(setups))
		o.put("lat_p50_ms", "ms", pass.P50)
		o.put("lat_tail_ms", "ms", pass.Tail)
		o.Raw = map[string]float64{"setup_s": Median(rawSetups), "lat_p50_ms": raw.P50, "lat_tail_ms": raw.Tail}
		o.Latency = map[string]Summary{"pass": raw}
		o.put("peak_heap_mb", "MB", Median(peaks))
		o.put("ok_frac", "frac", float64(o.Attempted-o.Failed)/float64(o.Attempted))
		o.put("regs_after", "count", regs)
		o.put("period_ps", "ps", period)
		return o, nil
	}
	return o, flowLayers(cfg, o, designs, reps)
}

// flowLayers turns the traced and untraced passes of a traced run into the
// per-layer metrics, and writes the last traced pass as a Chrome trace.
func flowLayers(cfg Config, o *Outcome, designs []flowDesign, reps []rep) error {
	if err := addFlowLayers(o, reps); err != nil {
		return err
	}
	if err := frontEndLayers(o, designs); err != nil {
		return err
	}
	var last *rep
	for i := range reps {
		if reps[i].traced {
			last = &reps[i]
		}
	}
	ct := newChromeTrace()
	for j, d := range designs {
		rec := last.recs[j]
		var end time.Duration
		for _, sp := range rec.Spans() {
			end = max(end, sp.Start+sp.Duration)
		}
		ct.add(d.name, last.starts[j], end, 1, nil)
		ct.addRecorder(rec, last.starts[j], 1)
	}
	path, err := ct.write(cfg.WorkDir, fmt.Sprintf("trace_%s_seed%d.json", cfg.Workload, cfg.Seed))
	o.TraceFile = path
	return err
}

// addFlowLayers puts the per-pass self times and solver counters of the
// traced passes, the allocation and GC counts of the untraced ones, and the
// tracing overhead between the two.
func addFlowLayers(o *Outcome, reps []rep) error {
	var plain, traced, allocs, gcs []float64
	passMS := map[string][]float64{}
	counters := map[string][]float64{}
	var retries []float64
	for i := range reps {
		r := &reps[i]
		if !r.traced {
			plain = append(plain, r.net.Seconds())
			allocs = append(allocs, float64(r.allocs)/(1<<20))
			gcs = append(gcs, float64(r.gcs))
			continue
		}
		traced = append(traced, r.net.Seconds())
		self := map[string]float64{}
		sums := map[string]float64{}
		for _, rec := range r.recs {
			spans := rec.Spans()
			recs := make([]SpanRec, len(spans))
			for k, sp := range spans {
				recs[k] = SpanRec{sp.Name, sp.Start, sp.Duration, sp.Parent}
			}
			for k, d := range SelfTimes(recs) {
				self[spans[k].Name] += ms(d)
			}
			for _, c := range counterMetrics {
				sums[c.metric] += float64(rec.Counter(c.counter))
			}
		}
		for _, name := range passNames {
			passMS[name] = append(passMS[name], self[name])
		}
		for _, c := range counterMetrics {
			counters[c.metric] = append(counters[c.metric], sums[c.metric])
		}
		retries = append(retries, float64(r.retries))
	}
	if len(traced) == 0 || len(plain) == 0 {
		return fmt.Errorf("a traced run needs traced and untraced passes (have %d and %d)", len(traced), len(plain))
	}
	for _, name := range passNames {
		o.put("pass_ms."+name, "ms", Median(passMS[name]))
	}
	for _, c := range counterMetrics {
		o.put(c.metric, "count", Median(counters[c.metric]))
	}
	o.put("retries", "count", Median(retries))
	o.put("alloc_mb", "MB", Median(allocs))
	o.put("gc_cycles", "count", Median(gcs))
	o.put("trace_overhead_frac", "frac", Median(traced)/Median(plain)-1)
	return nil
}

// frontEndLayers puts the cost of the program's front-end layers on the
// workload's inputs, each the median of minReps rounds over all of them:
// map_ms is the XC4000 mapping the paper's script does per design (map after
// decomposing sync resets, then remap the mapped result), blif_read_ms the
// public BLIF parser on each input's BLIF text. Only table2's passes map, and
// only the service parses, but every workload's inputs pass through both
// layers when a user feeds them to the CLI.
func frontEndLayers(o *Outcome, designs []flowDesign) error {
	texts := make([][]byte, len(designs))
	for j, d := range designs {
		var err error
		if texts[j], err = blifBytes(d.in); err != nil {
			return err
		}
	}
	var maps, reads []float64
	for i := 0; i < minReps; i++ {
		runtime.GC()
		t0 := now()
		for _, d := range designs {
			m, err := xc4000.Map(xc4000.DecomposeSyncResets(d.in.Clone()))
			if err != nil {
				return fmt.Errorf("map %s: %w", d.name, err)
			}
			if _, err := xc4000.Map(m); err != nil {
				return fmt.Errorf("remap %s: %w", d.name, err)
			}
		}
		_, net := t0.since()
		maps = append(maps, ms(net))

		runtime.GC()
		t0 = now()
		for j, d := range designs {
			if _, err := blif.Read(bytes.NewReader(texts[j])); err != nil {
				return fmt.Errorf("read %s: %w", d.name, err)
			}
		}
		_, net = t0.since()
		reads = append(reads, ms(net))
	}
	o.put("map_ms", "ms", Median(maps))
	o.put("blif_read_ms", "ms", Median(reads))
	return nil
}

func allocStats() (bytes, cycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// heapSampler tracks the peak Go heap in use, polling the runtime's
// heap-objects gauge every couple of milliseconds.
type heapSampler struct {
	max  atomic.Uint64
	quit chan struct{}
	wg   sync.WaitGroup
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func heapNow() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{})}
	h.reset()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-tick.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	v := heapNow()
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// reset starts a new peak from the heap in use now.
func (h *heapSampler) reset() { h.max.Store(heapNow()) }

// peak returns the highest heap seen since the last reset.
func (h *heapSampler) peak() uint64 {
	h.observe()
	return h.max.Load()
}

func (h *heapSampler) stop() {
	close(h.quit)
	h.wg.Wait()
}
