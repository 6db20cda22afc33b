package mcgraph

import (
	"context"

	"mcretiming/internal/graph"
)

// BoundsInfo carries the mc-retiming bounds of §4.1 plus the bookkeeping the
// sharing transform and the paper's #Step metric need.
type BoundsInfo struct {
	// RMax[v] is the backward bound r_max^mc(v) ≥ 0; RMin[v] the forward
	// bound r_min^mc(v) ≤ 0. For vertices on all-compatible cycles the
	// corresponding Unbounded flag is set and the count is the cap reached.
	RMax, RMin                 []int32
	UnboundedMax, UnboundedMin []bool
	// Backward[e] is the register class sequence of edge e after maximal
	// backward retiming, source end first (needed by §4.2).
	Backward [][]ClassID
	// StepsPossible is Σ_v (r_max + |r_min|): the paper's "#Step" second
	// number, the total number of valid mc-retiming steps.
	StepsPossible int64
}

// ComputeBounds derives the mc-retiming bounds by maximal backward and
// maximal forward retiming of m (§4.1); m itself is not modified. Reset
// values are ignored, exactly as the paper prescribes, so each sweep works
// on the per-edge class sequences alone.
//
// Maximal retiming need not terminate when a cycle's register layers stay
// compatible all the way around (registers can rotate forever). A vertex
// whose move count reaches the total number of register instances plus one
// has necessarily cycled, so it stops there and is reported unbounded in
// that direction — "arbitrarily many layers available".
//
// The context is polled every few thousand vertices or worklist pops; on
// cancellation its error is returned.
func (m *MC) ComputeBounds(ctx context.Context) (*BoundsInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := len(m.Verts)
	cap32 := int32(m.NumRegInstances()) + 1
	active := make([]bool, n)
	for v := range active {
		active[v] = m.activeForBounds(graph.VertexID(v))
	}

	bw := m.newSweep(true, active, cap32)
	if err := bw.run(ctx); err != nil {
		return nil, err
	}
	backward := compactSeqs(bw.seq)
	fw := m.newSweep(false, active, cap32)
	if err := fw.run(ctx); err != nil {
		return nil, err
	}

	info := &BoundsInfo{
		RMax: bw.count, RMin: make([]int32, n),
		UnboundedMax: bw.unbounded, UnboundedMin: fw.unbounded,
		Backward: backward,
	}
	for v := 0; v < n; v++ {
		info.RMin[v] = -fw.count[v]
		info.StepsPossible += int64(bw.count[v]) + int64(fw.count[v])
	}
	return info, nil
}

// compactSeqs copies the non-empty sequences into one exact-size backing
// array, so the result keeps only the registers that remain and none of the
// popped prefixes or append slack of the sweep.
func compactSeqs(seq [][]ClassID) [][]ClassID {
	total := 0
	for _, sq := range seq {
		total += len(sq)
	}
	backing := make([]ClassID, total)
	out := make([][]ClassID, len(seq))
	off := 0
	for e, sq := range seq {
		if len(sq) == 0 {
			continue
		}
		out[e] = backing[off : off+len(sq) : off+len(sq)]
		off += copy(out[e], sq)
	}
	return out
}

// activeForBounds reports whether v can ever take an mc-step: it is Movable
// and none of its edges is frozen. Both properties are static, so inactive
// vertices never move in either direction.
func (m *MC) activeForBounds(v graph.VertexID) bool {
	if !m.Movable(v) {
		return false
	}
	for _, ei := range m.in[v] {
		if m.Edges[ei].NoMove {
			return false
		}
	}
	for _, ei := range m.out[v] {
		if m.Edges[ei].NoMove {
			return false
		}
	}
	return true
}

// sweep is one direction of maximal retiming over flat class sequences. In
// either direction a step at v pops a common layer off the front of every
// dependency edge of v and appends it to the back of every feed edge:
//
//   - backward: deps = out-edges, feeds = in-edges, sequences stored source
//     end first, so the consumer of edge u→w is u and its producer w;
//   - forward: deps = in-edges, feeds = out-edges, sequences stored sink end
//     first (reversed), so the consumer of u→w is w and its producer u.
//
// Every edge has one consumer and one producer, and a vertex's dependency
// fronts change only by its own pops, so no step ever disables another and
// the fixpoint does not depend on the order of the steps (DESIGN.md §11).
// The sweep exploits that: it settles the vertices in SCC-condensed
// dependency order, so an acyclic vertex sees its final dependency
// sequences and moves all its layers at once.
type sweep struct {
	m           *MC
	backward    bool
	active      []bool
	cap         int32
	deps, feeds [][]int32
	seq         [][]ClassID
	count       []int32
	unbounded   []bool
}

func (m *MC) newSweep(backward bool, active []bool, cap32 int32) *sweep {
	n := len(m.Verts)
	s := &sweep{
		m: m, backward: backward, active: active, cap: cap32,
		deps: m.out, feeds: m.in,
		seq:       make([][]ClassID, len(m.Edges)),
		count:     make([]int32, n),
		unbounded: make([]bool, n),
	}
	if !backward {
		s.deps, s.feeds = m.in, m.out
	}
	// One backing array for the initial sequences; each edge's slice is
	// capacity-limited so its first append moves it off the shared array.
	backing := make([]ClassID, m.NumRegInstances())
	off := 0
	for i := range m.Edges {
		regs := m.Edges[i].Regs
		if len(regs) == 0 {
			continue
		}
		sq := backing[off : off+len(regs) : off+len(regs)]
		off += len(regs)
		for j := range regs {
			if backward {
				sq[j] = regs[j].Class
			} else {
				sq[len(regs)-1-j] = regs[j].Class
			}
		}
		s.seq[i] = sq
	}
	return s
}

// producer returns the vertex that appends to edge e's sequence; consumer
// the vertex that pops from its front.
func (s *sweep) producer(e int32) graph.VertexID {
	if s.backward {
		return s.m.Edges[e].To
	}
	return s.m.Edges[e].From
}

func (s *sweep) consumer(e int32) graph.VertexID {
	if s.backward {
		return s.m.Edges[e].From
	}
	return s.m.Edges[e].To
}

// lcp returns the length of the longest common class prefix of v's
// dependency sequences: the number of valid steps v can take in a row.
func (s *sweep) lcp(v graph.VertexID) int32 {
	d := s.deps[v]
	first := s.seq[d[0]]
	l := len(first)
	for _, e := range d[1:] {
		sq := s.seq[e]
		if len(sq) < l {
			l = len(sq)
		}
		i := 0
		for i < l && sq[i] == first[i] {
			i++
		}
		if l = i; l == 0 {
			return 0
		}
	}
	return int32(l)
}

// move takes k ≤ lcp(v) steps at v at once — the same result as k unit
// steps, since every layer popped lies in the prefix present before the
// move — and flags v unbounded when its count reaches the cap.
func (s *sweep) move(v graph.VertexID, k int32) {
	d := s.deps[v]
	layer := s.seq[d[0]][:k:k]
	for _, e := range d {
		rest := s.seq[e][k:]
		if len(rest) == 0 {
			rest = nil
		}
		s.seq[e] = rest
	}
	for _, e := range s.feeds[v] {
		s.seq[e] = append(s.seq[e], layer...)
	}
	if s.count[v] += k; s.count[v] >= s.cap {
		s.unbounded[v] = true
	}
}

// pollEvery is the number of settled vertices or worklist pops between two
// context polls.
const pollEvery = 4096

// run drives the sweep to its fixpoint: Tarjan's algorithm over the active
// vertices along dependency edges (consumer → producer) emits every SCC
// after all the SCCs it depends on, which is exactly the settling order.
func (s *sweep) run(ctx context.Context) error {
	n := len(s.m.Verts)
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	comp := make([]int32, n) // SCC number once settled, else -1
	for v := range index {
		index[v], comp[v] = unvisited, unvisited
	}
	var (
		stack   []graph.VertexID // Tarjan's vertex stack
		onStack = make([]bool, n)
		next    int32
		ncomp   int32
		polls   int
		inQ     = make([]bool, n)
		queue   []graph.VertexID
	)
	type frame struct {
		v graph.VertexID
		i int // next dependency edge to explore
	}
	var call []frame

	poll := func() error {
		if polls++; polls%pollEvery == 0 {
			return ctx.Err()
		}
		return nil
	}

	// settle processes one emitted SCC, members in Tarjan-stack order.
	settle := func(members []graph.VertexID) error {
		id := ncomp
		ncomp++
		for _, v := range members {
			comp[v] = id
		}
		// A worklist restricted to the SCC. A move at v can enable a move
		// only at v itself or at the consumers of v's feed edges. An acyclic
		// vertex (singleton SCC) sees its final dependency sequences, so its
		// first pop moves its whole lcp and the second finds nothing left.
		push := func(v graph.VertexID) {
			if !inQ[v] && !s.unbounded[v] {
				inQ[v] = true
				queue = append(queue, v)
			}
		}
		for _, v := range members {
			push(v)
		}
		for len(queue) > 0 {
			if err := poll(); err != nil {
				return err
			}
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			inQ[v] = false
			if s.unbounded[v] {
				continue
			}
			k := min(s.lcp(v), s.cap-s.count[v])
			if k == 0 {
				continue
			}
			s.move(v, k)
			push(v)
			for _, e := range s.feeds[v] {
				if u := s.consumer(e); comp[u] == id {
					push(u)
				}
			}
		}
		return nil
	}

	for root := 1; root < n; root++ {
		if !s.active[root] || index[root] != unvisited {
			continue
		}
		call = append(call[:0], frame{v: graph.VertexID(root)})
		index[root], low[root] = next, next
		next++
		stack = append(stack, graph.VertexID(root))
		onStack[root] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			if d := s.deps[v]; f.i < len(d) {
				w := s.producer(d[f.i])
				f.i++
				switch {
				case !s.active[w]:
				case index[w] == unvisited:
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{v: w})
				case onStack[w]:
					low[v] = min(low[v], index[w])
				}
				continue
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].v
				low[p] = min(low[p], low[v])
			}
			if low[v] != index[v] {
				continue
			}
			top := len(stack) - 1
			for stack[top] != v {
				top--
			}
			members := stack[top:]
			for _, u := range members {
				onStack[u] = false
			}
			if err := settle(members); err != nil {
				return err
			}
			stack = stack[:top]
		}
	}
	return nil
}

// GraphBounds converts the mc bounds into basic-retiming bounds over the
// projected graph's vertices (same indexing). Pinned vertices get [0,0];
// unbounded directions are left open.
func (info *BoundsInfo) GraphBounds(m *MC) *graph.Bounds {
	n := len(m.Verts)
	b := graph.NewBounds(n)
	for v := 0; v < n; v++ {
		if m.Verts[v].Pinned {
			b.Min[v], b.Max[v] = 0, 0
			continue
		}
		if !info.UnboundedMin[v] {
			b.Min[v] = info.RMin[v]
		}
		if !info.UnboundedMax[v] {
			b.Max[v] = info.RMax[v]
		}
	}
	return b
}
