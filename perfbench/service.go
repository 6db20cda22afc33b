package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mcretiming/internal/blif"
	"mcretiming/internal/explore"
	"mcretiming/internal/gen"
	"mcretiming/internal/netlist"
	"mcretiming/internal/server"
	"mcretiming/internal/xc4000"
)

// Service load shape. The rate is fixed, about a third of the closed-loop
// capacity measured on a 2-core host (24–31 jobs/s), so the open loop runs
// unsaturated and latency reflects service time plus ordinary queueing.
// Every sweepEvery-th request is a sweep; the rest are interactive retimes.
// The loop sends whole cycles of the request stream, one cycle holding every
// interactive circuit once and every sweep circuit four times, so each run
// serves the same mix whatever its length.
const (
	openRate   = 8.0 // requests per second
	sweepEvery = 2
	poolSize   = 24 // interactive circuits, stratified over the size range
	minGates   = 200
	maxGates   = 3200
)

// Tenants of the service workload.
const (
	tenantInteractive = "interactive"
	tenantSweep       = "sweep"
)

// sweepPool are the circuits the sweep tenant cycles over: mapped suite
// circuits with multi-point fronts and cold sweeps under half a second.
var sweepPool = []int{1, 2, 3, 5, 7, 8}

const (
	classRetime = iota
	classSweep
)

var classTenant = [...]string{tenantInteractive, tenantSweep}

// svcInput is one circuit a tenant submits, with its prebuilt request body.
type svcInput struct {
	name string
	text string // BLIF as sent
	body []byte // JSON request envelope
}

type svcInputs struct {
	retime, sweep []svcInput
	warmRetime    svcInput
	warmSweep     svcInput
}

func makeInput(c *netlist.Circuit) (svcInput, error) {
	text, err := blifBytes(c)
	if err != nil {
		return svcInput{}, err
	}
	body, err := json.Marshal(map[string]any{"blif": string(text), "options": map[string]any{}})
	if err != nil {
		return svcInput{}, err
	}
	return svcInput{name: c.Name, text: string(text), body: body}, nil
}

func mappedSuite(i int) (*netlist.Circuit, error) {
	c, err := gen.Circuit(i)
	if err != nil {
		return nil, err
	}
	return xc4000.Map(xc4000.DecomposeSyncResets(c))
}

// buildServiceInputs generates the tenants' circuits from the seed. The
// interactive sizes are stratified log-uniform over [minGates, maxGates]:
// the same smooth size distribution at every seed, with no gap for a
// percentile to sit on; the seed picks each circuit's structure.
func buildServiceInputs(seed int64, small bool) (*svcInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	n, lo, hi, sweeps := poolSize, float64(minGates), float64(maxGates), sweepPool
	if small {
		n, lo, hi, sweeps = 6, 40, 160, sweepPool[:2]
	}
	in := &svcInputs{}
	for k := 0; k < n; k++ {
		gates := int(math.Round(lo * math.Pow(hi/lo, (float64(k)+0.5)/float64(n))))
		c := gen.Random(rng.Int63(), gates)
		c.Name = fmt.Sprintf("r%02d_g%d", k, gates)
		si, err := makeInput(c)
		if err != nil {
			return nil, err
		}
		in.retime = append(in.retime, si)
	}
	for _, i := range sweeps {
		c, err := mappedSuite(i)
		if err != nil {
			return nil, err
		}
		si, err := makeInput(c)
		if err != nil {
			return nil, err
		}
		in.sweep = append(in.sweep, si)
	}
	// Warm-up inputs lie outside both pools, so the timed phase starts with
	// a cold result store for every sweep circuit.
	w := gen.Random(rng.Int63(), int(lo)*2)
	w.Name = "warmup"
	var err error
	if in.warmRetime, err = makeInput(w); err != nil {
		return nil, err
	}
	ws, err := mappedSuite(2)
	if err != nil {
		return nil, err
	}
	ws.Name = "warmup_sweep"
	if in.warmSweep, err = makeInput(ws); err != nil {
		return nil, err
	}
	return in, nil
}

// stream hands out the request sequence: class by position, pool member by
// a fixed per-class order that every cycle repeats. The order is drawn once
// from a constant seed, not the run's, so every run replays the same pattern
// of sizes and contention; the seed changes only the circuits. It is safe
// for concurrent use.
type stream struct {
	mu    sync.Mutex
	in    *svcInputs
	next  int
	order [2][]int
	pos   [2]int
}

func newStream(in *svcInputs) *stream {
	fixed := rand.New(rand.NewSource(1))
	return &stream{in: in, order: [2][]int{fixed.Perm(len(in.retime)), fixed.Perm(len(in.sweep))}}
}

// cycle is the stream's period in requests: every interactive circuit once
// and the sweep pool as often as that takes.
func (s *stream) cycle() int { return len(s.in.retime) * sweepEvery / (sweepEvery - 1) }

func (s *stream) take() (class, idx int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	class = classRetime
	if s.next%sweepEvery == sweepEvery-1 {
		class = classSweep
	}
	order := s.order[class]
	idx = order[s.pos[class]%len(order)]
	s.pos[class]++
	s.next++
	return class, idx
}

// jobView is the part of the daemon's job view the benchmark reads.
type jobView struct {
	ID         string    `json:"id"`
	Status     string    `json:"status"`
	QueuedAt   time.Time `json:"queued_at"`
	StartedAt  time.Time `json:"started_at"`
	FinishedAt time.Time `json:"finished_at"`
	Result     *struct {
		BLIF   string `json:"blif"`
		Report *struct {
			PeriodAfterPS int64 `json:"period_after_ps"`
		} `json:"report"`
		Front json.RawMessage `json:"front"`
	} `json:"result"`
}

// call is one request and what came back.
type call struct {
	class, idx      int
	cold            bool // a circuit's first sweep, which fills the store
	due, sent, resp time.Time
	status          int
	view            jobView
	err             error
}

// daemon is the single-node service under test, on a loopback listener.
type daemon struct {
	srv    *server.Server
	http   *http.Server
	served chan error
	url    string
	client *http.Client
	store  string
}

func startDaemon(workDir string) (*daemon, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	storeDir, err := os.MkdirTemp(workDir, "store-")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{StoreDir: storeDir, Logf: func(string, ...any) {}})
	if err := srv.Start(); err != nil {
		os.RemoveAll(storeDir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		os.RemoveAll(storeDir)
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 256}},
		store:  storeDir,
	}
	go func() { d.served <- d.http.Serve(ln) }()
	return d, nil
}

// stop shuts the listener and the daemon down and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	<-d.served
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	if rerr := os.RemoveAll(d.store); err == nil {
		err = rerr
	}
	return err
}

// submit posts one job and waits for it. It returns the HTTP status, the
// job view, and when the response had fully arrived.
func (d *daemon) submit(class int, in svcInput) (int, jobView, time.Time, error) {
	path := "/v1/retime?wait=1"
	if class == classSweep {
		path = "/v1/explore?wait=1"
	}
	var v jobView
	req, err := http.NewRequest(http.MethodPost, d.url+path, bytes.NewReader(in.body))
	if err != nil {
		return 0, v, time.Time{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-MCRetiming-Tenant", classTenant[class])
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, v, time.Now(), err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	at := time.Now()
	if err != nil {
		return resp.StatusCode, v, at, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, v, at, fmt.Errorf("%s %s: HTTP %d: %s", classTenant[class], in.name, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return resp.StatusCode, v, at, fmt.Errorf("decode job view: %w", err)
	}
	return resp.StatusCode, v, at, nil
}

// scrape reads the daemon's /metrics counters.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.client.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

func (d *daemon) do(s *svcInputs, c *call) {
	pool := s.retime
	if c.class == classSweep {
		pool = s.sweep
	}
	c.status, c.view, c.resp, c.err = d.submit(c.class, pool[c.idx])
}

// openLoop sends n requests on a fixed schedule, each in its own goroutine,
// whatever the state of earlier ones, and waits for all of them.
func openLoop(d *daemon, in *svcInputs, st *stream, n int, rate float64, late *Lateness) []*call {
	calls := make([]*call, n)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(10 * time.Millisecond)
	swept := map[int]bool{}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		class, idx := st.take()
		c := &call{class: class, idx: idx, due: start.Add(time.Duration(i) * interval)}
		if class == classSweep && !swept[idx] {
			c.cold, swept[idx] = true, true
		}
		calls[i] = c
		time.Sleep(time.Until(c.due))
		c.sent = time.Now()
		late.Record(c.due, c.sent)
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.do(in, c)
		}()
	}
	wg.Wait()
	return calls
}

func runService(cfg Config) (*Outcome, error) {
	o := &Outcome{}

	// Set-up: generate inputs, start the daemon, warm it up with one request
	// per tenant; several times, keeping the last daemon.
	var d *daemon
	var in *svcInputs
	var setups, rawSetups []float64
	for i := 0; i < setupRounds; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("stop daemon: %w", err)
			}
		}
		t0 := now()
		var err error
		if in, err = buildServiceInputs(cfg.Seed, cfg.Small); err != nil {
			return nil, err
		}
		if d, err = startDaemon(cfg.WorkDir); err != nil {
			return nil, err
		}
		if _, _, _, err := d.submit(classRetime, in.warmRetime); err != nil {
			d.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if _, _, _, err := d.submit(classSweep, in.warmSweep); err != nil {
			d.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		wall, net := t0.since()
		setups, rawSetups = append(setups, net.Seconds()), append(rawSetups, wall.Seconds())
	}

	before, err := d.scrape()
	if err != nil {
		d.stop()
		return nil, err
	}
	st := newStream(in)
	// The open loop sends whole cycles of the stream for about --seconds, at
	// least enough for a tail in each class.
	rate := openRate
	if cfg.Small {
		rate *= 4 // the self-tests' tiny inputs are served that much faster
	}
	cycle := st.cycle()
	// Each class needs twice minTail+1 samples for its tail to sit at or
	// above its median; the store-filling sweeps do not count.
	need := 2 * (minTail + 1)
	sweeps := cycle / sweepEvery // per cycle
	minCycles := max((need+len(in.sweep)+sweeps-1)/sweeps, (need+cycle-sweeps-1)/(cycle-sweeps))
	cycles := max(int(math.Round(cfg.Seconds.Seconds()*rate/float64(cycle))), minCycles)
	n := cycles * cycle
	var late Lateness
	sampler := startHeapSampler()
	runtime.GC()
	sampler.reset()
	t0 := now()
	calls := openLoop(d, in, st, n, rate, &late)
	openWall, openNet := t0.since()
	// Latencies are scaled net of steal by the open loop's overall share.
	netShare := float64(openNet) / float64(openWall)
	peak := sampler.peak()
	sampler.stop()
	after, err := d.scrape()
	if err != nil {
		d.stop()
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stop daemon: %w", err)
	}

	// Correctness: every response against the library flow on the same
	// input and options.
	ref, err := newReference(in, cfg.Seed)
	if err != nil {
		return nil, err
	}
	for _, c := range calls {
		o.Attempted++
		if err := ref.check(c); err != nil {
			o.Failed++
			o.Errs = append(o.Errs, err)
		}
	}
	o.Errs = append(o.Errs, ref.gate.errs...)
	for _, list := range [][]svcInput{in.retime, in.sweep} {
		for _, si := range list {
			c, err := blif.Read(strings.NewReader(si.text))
			if err != nil {
				return nil, err
			}
			o.Designs = append(o.Designs, Design{Name: si.name, Size: sizeOf(c), Digest: ref.digest[si.name]})
		}
	}

	// Each sweep circuit's first sweep solves every point and fills the
	// store; the rest read it. The explore percentiles are over the reads
	// only: with the fills in, the class would have a gap for its tail to sit
	// on. The fills still count in ok_frac and the store metrics.
	lat := [2][]float64{}
	for _, c := range calls {
		if !c.cold {
			lat[c.class] = append(lat[c.class], ms(c.resp.Sub(c.due)))
		}
	}
	if !cfg.Trace {
		// The unit of work is one interactive retime request; the sweep
		// class goes on the info line.
		o.put("setup_s", "s", Median(setups))
		o.Raw = map[string]float64{"setup_s": Median(rawSetups)}
		o.Latency = map[string]Summary{}
		for class, name := range [...]string{"retime", "explore"} {
			s, err := Summarize(lat[class])
			if err != nil {
				return nil, fmt.Errorf("%s latency: %w", name, err)
			}
			o.extra("lat_p50_ms."+name, "ms", s.P50*netShare)
			o.extra("lat_tail_ms."+name, "ms", s.Tail*netShare)
			o.Raw["lat_p50_ms."+name], o.Raw["lat_tail_ms."+name] = s.P50, s.Tail
			o.Latency[name] = s
		}
		o.put("lat_p50_ms", "ms", o.Extra["lat_p50_ms.retime"].Value)
		o.put("lat_tail_ms", "ms", o.Extra["lat_tail_ms.retime"].Value)
		o.put("peak_heap_mb", "MB", float64(peak)/(1<<20))
		o.put("ok_frac", "frac", float64(o.Attempted-o.Failed)/float64(o.Attempted))
		o.put("regs_after", "count", float64(ref.regs))
		o.put("period_ps", "ps", float64(ref.period))
		return o, nil
	}
	return o, serviceLayers(cfg, o, in, calls, &late, netShare, before, after)
}

// The daemon's stages, in the order a request passes them, and the
// per-layer metric each is reported under. admit runs from the request's due
// time to its enqueue, so the four add up to the request's latency.
var (
	stageNames   = [4]string{"admit", "queue", "run", "respond"}
	stageMetrics = [4]string{"admit_ms", "queue_wait_ms", "run_ms", "respond_ms"}
)

// stageSample is one completed request's latency and its split by stage.
type stageSample struct {
	lat    float64
	stages [4]float64
}

// bandMeans averages the requests ranked within a few places of center in
// xs, sorted by latency: the stage split of the requests at that percentile.
// The band holds a twentieth of the requests, and at least two on each side,
// so a single request does not decide it; its stage means add up to its
// mean latency.
func bandMeans(xs []stageSample, center int) (lat float64, stages [4]float64) {
	k := max(2, len(xs)/20)
	lo, hi := max(0, center-k), min(len(xs)-1, center+k)
	for _, x := range xs[lo : hi+1] {
		lat += x.lat
		for i, v := range x.stages {
			stages[i] += v
		}
	}
	n := float64(hi - lo + 1)
	for i := range stages {
		stages[i] /= n
	}
	return lat / n, stages
}

// reference is the library flow's answer for every pool input: the retimed
// BLIF the daemon must reproduce byte for byte, and each sweep's front.
type reference struct {
	in       *svcInputs
	gate     *gate
	blif     map[string]string
	reported map[string]int64 // reported period of each retime reference
	front    map[string][]byte
	digest   map[string]string
	// Σ registers and Σ static periods at the minimum-period end of the
	// sweep fronts. The sweep circuits do not depend on the seed, so these
	// read the same at every seed; the interactive outputs are pinned to the
	// library flow byte for byte instead.
	regs   int
	period int64
}

func newReference(in *svcInputs, seed int64) (*reference, error) {
	ctx := context.Background()
	r := &reference{in: in, gate: newGate(seed), blif: map[string]string{},
		reported: map[string]int64{}, front: map[string][]byte{}, digest: map[string]string{}}
	for _, si := range in.retime {
		c, err := blif.Read(strings.NewReader(si.text))
		if err != nil {
			return nil, err
		}
		res, err := retimeOnly(ctx, c, nil)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", si.name, err)
		}
		text, err := blifBytes(res.out)
		if err != nil {
			return nil, err
		}
		r.blif[si.name] = string(text)
		r.reported[si.name] = res.reported
		r.gate.check(si.name, c, res.out, res.reported)
		r.digest[si.name] = digest(text)
	}
	for _, si := range in.sweep {
		c, err := blif.Read(strings.NewReader(si.text))
		if err != nil {
			return nil, err
		}
		f, err := explore.Sweep(ctx, c, explore.Options{Core: paperOptions})
		if err != nil {
			return nil, fmt.Errorf("reference sweep %s: %w", si.name, err)
		}
		data, err := json.Marshal(f)
		if err != nil {
			return nil, err
		}
		r.front[si.name] = data
		r.digest[si.name] = digest(data)
		for _, p := range f.Points {
			out, err := blif.Read(strings.NewReader(p.BLIF))
			if err != nil {
				return nil, fmt.Errorf("reference sweep %s: point %d ps: %w", si.name, p.PeriodPS, err)
			}
			name := fmt.Sprintf("%s@%d", si.name, p.PeriodPS)
			r.gate.check(name, c, out, p.PeriodPS)
			if p.PeriodPS == f.MinPeriodPS {
				r.regs += out.NumRegs()
				r.period += r.gate.periods[name]
			}
		}
	}
	return r, nil
}

// check gates one response: a done job whose retimed BLIF, or front, is
// byte-identical to the library's on the same input, and whose reference
// passed the equivalence and period checks.
func (r *reference) check(c *call) error {
	if c.err != nil {
		return c.err
	}
	res := c.view.Result
	if c.view.Status != "done" || res == nil {
		return fmt.Errorf("%s: status %q without a result", c.view.ID, c.view.Status)
	}
	if c.class == classRetime {
		si := r.in.retime[c.idx]
		if res.BLIF != r.blif[si.name] {
			return fmt.Errorf("%s: %s: result differs from the library flow", c.view.ID, si.name)
		}
		if res.Report == nil || res.Report.PeriodAfterPS != r.reported[si.name] {
			return fmt.Errorf("%s: %s: reported period differs from the library flow", c.view.ID, si.name)
		}
		if !r.gate.first[si.name].ok {
			return fmt.Errorf("%s: %s: output failed the correctness gate", c.view.ID, si.name)
		}
		return nil
	}
	si := r.in.sweep[c.idx]
	var got bytes.Buffer
	if err := json.Compact(&got, res.Front); err != nil {
		return fmt.Errorf("%s: %s: front: %w", c.view.ID, si.name, err)
	}
	if !bytes.Equal(got.Bytes(), r.front[si.name]) {
		return fmt.Errorf("%s: %s: front differs from the library sweep", c.view.ID, si.name)
	}
	return nil
}

// serviceLayers reduces a traced service run to per-layer metrics: the
// flow's passes from traced library passes over the interactive pool and the
// front-end layers on the same inputs. The daemon's stages from the job
// views' lifecycle stamps, the store and sweep counters from /metrics and
// the load generator's own accounting are the service's alone, so they go on
// the info line.
func serviceLayers(cfg Config, o *Outcome, in *svcInputs, calls []*call, late *Lateness,
	netShare float64, before, after map[string]float64) error {
	ct := newChromeTrace()
	var samples [2][]stageSample
	var sent, done, failed, shed int
	for i, c := range calls {
		sent++
		switch {
		case c.status == http.StatusTooManyRequests:
			shed++
			failed++
			continue
		case c.err != nil:
			failed++
			continue
		}
		done++
		v := c.view
		tid := i + 1
		args := map[string]any{"id": v.ID, "tenant": classTenant[c.class]}
		ct.add("request", c.due, c.resp.Sub(c.due), tid, args)
		smp := stageSample{lat: ms(c.resp.Sub(c.due))}
		for k, s := range []struct {
			from, to time.Time
		}{
			{c.due, v.QueuedAt},
			{v.QueuedAt, v.StartedAt},
			{v.StartedAt, v.FinishedAt},
			{v.FinishedAt, c.resp},
		} {
			smp.stages[k] = ms(s.to.Sub(s.from))
			ct.add(stageNames[k], s.from, s.to.Sub(s.from), tid, args)
		}
		if !c.cold {
			samples[c.class] = append(samples[c.class], smp)
		}
	}
	for class, tenant := range classTenant {
		xs := samples[class]
		if len(xs) <= minTail {
			return fmt.Errorf("%s: %d completed requests, a tail needs %d", tenant, len(xs), minTail+1)
		}
		sort.Slice(xs, func(a, b int) bool { return xs[a].lat < xs[b].lat })
		for _, at := range []struct {
			name   string
			center int
		}{{"p50", len(xs) / 2}, {"tail", len(xs) - minTail - 1}} {
			lat, stages := bandMeans(xs, at.center)
			o.extra("traced_lat_ms."+at.name+"."+tenant, "ms", lat*netShare)
			for k, name := range stageMetrics {
				o.extra(name+"."+at.name+"."+tenant, "ms", stages[k]*netShare)
			}
		}
	}
	o.extra("loadgen_late_ms", "ms", late.Worst())
	o.extra("sent", "count", float64(sent))
	o.extra("done", "count", float64(done))
	o.extra("failed", "count", float64(failed))
	o.extra("shed_429", "count", float64(shed))

	delta := func(name string) float64 { return after["mcretimed_"+name] - before["mcretimed_"+name] }
	hits, misses := delta("store_hits"), delta("store_misses")
	o.extra("store_lookups", "count", hits+misses)
	if hits+misses > 0 {
		o.extra("store_hit_frac", "frac", hits/(hits+misses))
	} else {
		o.extra("store_hit_frac", "frac", 0)
	}
	o.extra("store_saves", "count", delta("store_saves"))
	o.extra("explore_points", "count", delta("trace_explore_points"))

	// Library passes over the interactive pool, alternating untraced and
	// traced, give the flow's per-pass self times on the service's inputs
	// and the tracing overhead.
	pool := make([]flowDesign, len(in.retime))
	for i, si := range in.retime {
		c, err := blif.Read(strings.NewReader(si.text))
		if err != nil {
			return err
		}
		pool[i] = flowDesign{si.name, c}
	}
	var reps []rep
	for i := 0; i < 2*2; i++ {
		r, _, errs := timedPass(context.Background(), pool, retimeOnly, i%2 == 1, nil)
		for j, err := range errs {
			if err != nil {
				return fmt.Errorf("library pass %s: %w", pool[j].name, err)
			}
		}
		reps = append(reps, r)
	}
	if err := addFlowLayers(o, reps); err != nil {
		return err
	}
	if err := frontEndLayers(o, pool); err != nil {
		return err
	}
	last := &reps[len(reps)-1]
	for j := range pool {
		ct.addRecorder(last.recs[j], last.starts[j], 0)
	}
	path, err := ct.write(cfg.WorkDir, fmt.Sprintf("trace_%s_seed%d.json", cfg.Workload, cfg.Seed))
	o.TraceFile = path
	return err
}
