package mcgraph

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"

	"mcretiming/internal/gen"
	"mcretiming/internal/graph"
	"mcretiming/internal/logic"
	"mcretiming/internal/netlist"
	"mcretiming/internal/xc4000"
)

// mustBounds computes the bulk bounds of m, failing the test on error.
func mustBounds(tb testing.TB, m *MC) *BoundsInfo {
	tb.Helper()
	info, err := m.ComputeBounds(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return info
}

// oracleBounds is the unit-step reference for ComputeBounds: maximal
// backward and forward retiming of two clones of m, one valid mc-step per
// worklist pop, with the same cap rule. With a nil rng the worklist pops in
// LIFO order; otherwise every pop takes a uniformly random queued vertex.
func oracleBounds(m *MC, rng *rand.Rand) *BoundsInfo {
	n := len(m.Verts)
	cap32 := int32(m.NumRegInstances()) + 1
	bw, fw := m.Clone(), m.Clone()
	rmax, ubMax := bw.oracleRetime(true, cap32, rng)
	rmin, ubMin := fw.oracleRetime(false, cap32, rng)
	info := &BoundsInfo{
		RMax: rmax, RMin: make([]int32, n),
		UnboundedMax: ubMax, UnboundedMin: ubMin,
		Backward: make([][]ClassID, len(bw.Edges)),
	}
	for v := 0; v < n; v++ {
		info.RMin[v] = -rmin[v]
		info.StepsPossible += int64(rmax[v]) + int64(rmin[v])
	}
	for i := range bw.Edges {
		for _, r := range bw.Edges[i].Regs {
			info.Backward[i] = append(info.Backward[i], r.Class)
		}
	}
	return info
}

// oracleRetime applies valid mc-steps in the given direction until no more
// apply, capping per-vertex counts, and returns the per-vertex move counts
// and unbounded flags. The receiver is mutated.
func (m *MC) oracleRetime(backward bool, cap32 int32, rng *rand.Rand) (counts []int32, unbounded []bool) {
	n := len(m.Verts)
	counts = make([]int32, n)
	unbounded = make([]bool, n)

	can := m.CanForward
	step := m.StepForward
	if backward {
		can = m.CanBackward
		step = m.StepBackward
	}

	// Worklist to a fixpoint: a move at v can only enable moves at v itself
	// or at its direct neighbours (that is where registers appeared), so
	// after each move v and its neighbours are re-enqueued.
	inQ := make([]bool, n)
	queue := make([]graph.VertexID, 0, n)
	push := func(v graph.VertexID) {
		if !inQ[v] && !unbounded[v] {
			inQ[v] = true
			queue = append(queue, v)
		}
	}
	for v := 1; v < n; v++ {
		push(graph.VertexID(v))
	}
	for len(queue) > 0 {
		last := len(queue) - 1
		if rng != nil {
			i := rng.Intn(len(queue))
			queue[i], queue[last] = queue[last], queue[i]
		}
		v := queue[last]
		queue = queue[:last]
		inQ[v] = false
		if unbounded[v] {
			continue
		}
		if _, ok := can(v); !ok {
			continue
		}
		if _, err := step(v); err != nil {
			continue
		}
		counts[v]++
		if counts[v] >= cap32 {
			unbounded[v] = true
		} else {
			push(v)
		}
		for _, ei := range m.in[v] {
			push(m.Edges[ei].From)
		}
		for _, ei := range m.out[v] {
			push(m.Edges[ei].To)
		}
	}
	return counts, unbounded
}

// diffBounds returns a description of the first difference between two
// bounds results, or "" when they are identical.
func diffBounds(got, want *BoundsInfo) string {
	switch {
	case !slices.Equal(got.RMax, want.RMax):
		return fmt.Sprintf("RMax %v, want %v", got.RMax, want.RMax)
	case !slices.Equal(got.RMin, want.RMin):
		return fmt.Sprintf("RMin %v, want %v", got.RMin, want.RMin)
	case !slices.Equal(got.UnboundedMax, want.UnboundedMax):
		return "UnboundedMax differs"
	case !slices.Equal(got.UnboundedMin, want.UnboundedMin):
		return "UnboundedMin differs"
	case got.StepsPossible != want.StepsPossible:
		return fmt.Sprintf("StepsPossible %d, want %d", got.StepsPossible, want.StepsPossible)
	case len(got.Backward) != len(want.Backward):
		return "Backward edge count differs"
	}
	for e := range got.Backward {
		if !slices.Equal(got.Backward[e], want.Backward[e]) {
			return fmt.Sprintf("Backward[%d] = %v, want %v", e, got.Backward[e], want.Backward[e])
		}
	}
	return ""
}

// diffAreaGraphs compares the solver graphs and bounds the sharing pass
// builds from two bounds results.
func diffAreaGraphs(m *MC, got, want *BoundsInfo) string {
	g1, b1 := m.AreaGraph(got)
	g2, b2 := m.AreaGraph(want)
	switch {
	case !slices.Equal(g1.Delay, g2.Delay) || !slices.Equal(g1.Name, g2.Name):
		return "area graph vertices differ"
	case !slices.Equal(g1.Edges, g2.Edges):
		return "area graph edges differ"
	case !slices.Equal(b1.Min, b2.Min) || !slices.Equal(b1.Max, b2.Max):
		return "area graph bounds differ"
	}
	return ""
}

// oracleCutFanout is the reference §4.2 layer cut for one multi-fanout
// vertex v: per layer it groups the selected edges by class in a map and
// keeps the largest group (ties to the smaller class).
func (m *MC) oracleCutFanout(bw [][]ClassID, v int32, tau []int32) {
	selected := append([]int32(nil), m.out[v]...)
	for layer := 0; ; layer++ {
		groups := make(map[ClassID][]int32)
		for _, ei := range selected {
			if seq := bw[ei]; layer < len(seq) {
				groups[seq[layer]] = append(groups[seq[layer]], ei)
			}
		}
		if len(groups) == 0 {
			return
		}
		var best ClassID
		bestN := -1
		for cls, es := range groups {
			if len(es) > bestN || (len(es) == bestN && cls < best) {
				best, bestN = cls, len(es)
			}
		}
		for _, ei := range selected {
			if seq := bw[ei]; layer < len(seq) && !slices.Contains(groups[best], ei) {
				tau[ei] = int32(len(seq) - layer)
			}
		}
		selected = groups[best]
	}
}

// diffCuts compares cutFanout on the bulk backward sequences with the
// reference cut on the oracle's, over every multi-fanout vertex.
func diffCuts(m *MC, got, want *BoundsInfo) string {
	t1 := make([]int32, len(m.Edges))
	t2 := make([]int32, len(m.Edges))
	for v := range m.Verts {
		if len(m.out[v]) >= 2 {
			m.cutFanout(got.Backward, int32(v), t1)
			m.oracleCutFanout(want.Backward, int32(v), t2)
		}
	}
	if !slices.Equal(t1, t2) {
		return fmt.Sprintf("layer cuts %v, want %v", t1, t2)
	}
	return ""
}

// checkAgainstOracle fails the test unless the bulk bounds of c are
// bit-identical to the unit-step oracle's, layer cuts and area graph
// included. It returns the number of vertices unbounded in either direction.
func checkAgainstOracle(t *testing.T, name string, c *netlist.Circuit) int {
	t.Helper()
	m, err := Build(c)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	before := slices.Clone(m.Edges)
	got := mustBounds(t, m)
	want := oracleBounds(m, nil)
	if d := diffBounds(got, want); d != "" {
		t.Fatalf("%s: bulk bounds differ from oracle: %s", name, d)
	}
	if d := diffAreaGraphs(m, got, want); d != "" {
		t.Fatalf("%s: %s", name, d)
	}
	if d := diffCuts(m, got, want); d != "" {
		t.Fatalf("%s: %s", name, d)
	}
	for i := range before {
		if !slices.Equal(before[i].Regs, m.Edges[i].Regs) {
			t.Fatalf("%s: ComputeBounds modified edge %d", name, i)
		}
	}
	unb := 0
	for v := range got.UnboundedMax {
		if got.UnboundedMax[v] || got.UnboundedMin[v] {
			unb++
		}
	}
	return unb
}

// randomCyclicMCCircuit builds a random multi-class circuit whose registers
// partly feed back to earlier gates: the cyclic counterpart of
// randomMCCircuit. Feedback registers are mostly plain, so all-compatible
// cycles (unbounded directions) are common; some get a second register of
// another class, which blocks rotation.
func randomCyclicMCCircuit(rng *rand.Rand, nGates int) *netlist.Circuit {
	c := netlist.New(fmt.Sprintf("cyc%d", rng.Int31()))
	clk := c.AddInput("clk")
	en := c.AddInput("en")
	arst := c.AddInput("arst")
	pool := []netlist.SignalID{c.AddInput("a"), c.AddInput("b")}
	fb := make([]netlist.SignalID, 1+rng.Intn(4))
	for i := range fb {
		fb[i] = c.AddSignal(fmt.Sprintf("fb%d", i))
		pool = append(pool, fb[i])
	}
	setClass := func(rid netlist.RegID, kind int) {
		switch kind {
		case 1:
			c.Regs[rid].EN = en
		case 2:
			c.Regs[rid].AR = arst
			c.Regs[rid].ARVal = logic.Bit(rng.Intn(2))
		}
	}
	types := []netlist.GateType{netlist.And, netlist.Or, netlist.Xor, netlist.Nand, netlist.Not}
	var outs []netlist.SignalID
	for i := 0; i < nGates; i++ {
		gt := types[rng.Intn(len(types))]
		n := 2
		if gt == netlist.Not || rng.Intn(3) == 0 {
			gt, n = netlist.Not, 1
		}
		in := make([]netlist.SignalID, n)
		for j := range in {
			in[j] = pool[rng.Intn(len(pool))]
		}
		_, o := c.AddGate("", gt, in, int64(1000*(1+rng.Intn(5))))
		pool = append(pool, o)
		outs = append(outs, o)
		if rng.Intn(4) == 0 {
			rid, q := c.AddReg("", o, clk)
			setClass(rid, rng.Intn(3))
			pool = append(pool, q)
		}
	}
	// Close the loops: each feedback signal is a register (chain) fed by a
	// gate from the later half of the circuit.
	for _, q := range fb {
		d := outs[len(outs)/2+rng.Intn(len(outs)-len(outs)/2)]
		if rng.Intn(4) == 0 {
			rid, mid := c.AddReg("", d, clk)
			setClass(rid, 1+rng.Intn(2))
			d = mid
		}
		rid := c.AddRegTo("", d, q, clk)
		if rng.Intn(5) == 0 {
			setClass(rid, 1+rng.Intn(2))
		}
	}
	// Consume the dangling tail through one reduction output.
	used := make([]bool, len(c.Signals))
	c.LiveGates(func(g *netlist.Gate) {
		for _, in := range g.In {
			used[in] = true
		}
	})
	c.LiveRegs(func(r *netlist.Reg) { used[r.D] = true })
	var loose []netlist.SignalID
	for i := range c.Signals {
		d := c.Signals[i].Driver
		if !used[i] && (d.Kind == netlist.DriverGate || d.Kind == netlist.DriverReg) {
			loose = append(loose, netlist.SignalID(i))
		}
	}
	for len(loose) > 1 {
		var next []netlist.SignalID
		for i := 0; i < len(loose); i += 2 {
			if i+1 >= len(loose) {
				next = append(next, loose[i])
				break
			}
			_, o := c.AddGate("", netlist.Xor, loose[i:i+2], 1000)
			next = append(next, o)
		}
		loose = next
	}
	if len(loose) == 1 {
		c.MarkOutput(loose[0])
	}
	return c
}

// TestBulkBoundsMatchOracle pins the bulk sweep to the unit-step oracle:
// RMax, RMin, both unbounded flags, StepsPossible, the backward class
// sequences, and the area graph built from them, on acyclic and cyclic
// random circuits and on the paper's suite, mapped and unmapped.
func TestBulkBoundsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for iter := 0; iter < 200; iter++ {
		checkAgainstOracle(t, fmt.Sprintf("prop %d", iter), randomMCCircuit(rng, 10+rng.Intn(40)))
	}
	unbounded, cyclic := 0, 0
	for iter := 0; iter < 200; iter++ {
		u := checkAgainstOracle(t, fmt.Sprintf("cyclic %d", iter), randomCyclicMCCircuit(rng, 10+rng.Intn(40)))
		unbounded += u
		if u > 0 {
			cyclic++
		}
	}
	// The cyclic generator must actually exercise the cap rule.
	if cyclic < 20 {
		t.Fatalf("only %d of 200 cyclic circuits had unbounded vertices", cyclic)
	}
	t.Logf("cyclic circuits: %d with unbounded vertices, %d unbounded vertices in all", cyclic, unbounded)
	for seed := int64(1); seed <= 20; seed++ {
		checkAgainstOracle(t, fmt.Sprintf("gen.Random %d", seed), gen.Random(seed, 60+int(seed)*10))
	}
	if testing.Short() {
		return
	}
	suite, err := gen.Suite()
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range suite {
		checkAgainstOracle(t, fmt.Sprintf("C%d", i+1), c)
		mapped, err := xc4000.Map(xc4000.DecomposeSyncResets(c.Clone()))
		if err != nil {
			t.Fatal(err)
		}
		u := checkAgainstOracle(t, fmt.Sprintf("mapped C%d", i+1), mapped)
		t.Logf("mapped C%d: %d unbounded vertices", i+1, u)
	}
	checkScaleAgainstOracle(t, 32, 40, 2000)
}

// checkScaleAgainstOracle runs checkAgainstOracle on a 32-wide
// ScalePipeline of the given depth and a ScaleDAG of dagGates gates.
func checkScaleAgainstOracle(t *testing.T, width, stages, dagGates int) {
	t.Helper()
	mix := gen.ClassMix{Plain: 1, EN: 1}
	pipe, err := gen.ScalePipeline(1, width, stages, mix)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, fmt.Sprintf("pipeline %dx%d", width, stages), pipe)
	dag, err := gen.ScaleDAG(1, dagGates, gen.ClassMix{Plain: 2, EN: 1, SR: 1, AR: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, fmt.Sprintf("DAG %d", dagGates), dag)
}

// TestBulkBoundsScale is the scale gate of the bulk sweep, behind
// MCRETIMING_SCALE=1 (the CI scale-smoke job sets it): bit-identity with the
// unit-step oracle on a 32×600 ScalePipeline (23M possible steps) and a
// 100k-gate ScaleDAG.
func TestBulkBoundsScale(t *testing.T) {
	if os.Getenv("MCRETIMING_SCALE") == "" {
		t.Skip("set MCRETIMING_SCALE=1 to run the bulk-bounds scale gate")
	}
	checkScaleAgainstOracle(t, 32, 600, 100_000)
}

// TestOracleOrderIndependent is the empirical witness behind the bulk
// sweep: valid mc-steps in one direction never disable one another, so the
// unit-step fixpoint — counts, flags and final class sequences — is the same
// for every pop order, cap included. Checked on cyclic circuits, where the
// order has the most room to matter.
func TestOracleOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for iter := 0; iter < 60; iter++ {
		c := randomCyclicMCCircuit(rng, 10+rng.Intn(30))
		m, err := Build(c)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		want := oracleBounds(m, nil)
		for shuffle := 0; shuffle < 3; shuffle++ {
			got := oracleBounds(m, rand.New(rand.NewSource(int64(iter*10+shuffle))))
			if d := diffBounds(got, want); d != "" {
				t.Fatalf("iter %d shuffle %d: pop order changed the fixpoint: %s", iter, shuffle, d)
			}
		}
	}
}

// countdownCtx is a context that reports cancellation from its n-th Err call
// on, so a test can cancel a computation at a chosen poll.
type countdownCtx struct {
	context.Context
	n, calls int
}

func (c *countdownCtx) Err() error {
	if c.calls++; c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestComputeBoundsCancelled: a cancelled context makes ComputeBounds return
// ctx.Err(), both when it is cancelled on entry and when it is cancelled
// while a sweep is running.
func TestComputeBoundsCancelled(t *testing.T) {
	c, err := gen.ScalePipeline(1, 32, 150, gen.ClassMix{Plain: 1, EN: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if info, err := m.ComputeBounds(ctx); !errors.Is(err, context.Canceled) || info != nil {
		t.Fatalf("cancelled before the sweep: got (%v, %v), want (nil, context.Canceled)", info, err)
	}
	// The entry check is the first Err call; the second comes from a poll
	// inside the backward sweep.
	cd := &countdownCtx{Context: context.Background(), n: 2}
	if info, err := m.ComputeBounds(cd); !errors.Is(err, context.Canceled) || info != nil {
		t.Fatalf("cancelled mid-sweep: got (%v, %v), want (nil, context.Canceled)", info, err)
	}
	if cd.calls != 2 {
		t.Fatalf("sweep polled the context %d times after cancellation, want it to stop at once", cd.calls-2)
	}
	// Uncancelled, the same circuit polls well past that point.
	full := &countdownCtx{Context: context.Background(), n: 1 << 30}
	if _, err := m.ComputeBounds(full); err != nil {
		t.Fatal(err)
	}
	if full.calls < 4 {
		t.Fatalf("uncancelled run polled %d times; the mid-sweep case would not be mid-sweep", full.calls)
	}
}
