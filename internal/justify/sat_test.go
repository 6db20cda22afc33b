package justify

import (
	"context"
	"math/rand"
	"testing"

	"mcretiming/internal/logic"
	"mcretiming/internal/mcgraph"
	"mcretiming/internal/netlist"
)

// The SAT backend must resolve the Fig. 5 conflict exactly like BDD.
func TestSATEngineResolvesFig5(t *testing.T) {
	c, plan := fig5Style(t)
	m, err := mcgraph.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	j := New(m)
	j.Engine = EngineSAT
	if _, err := m.Relocate(plan(m), j); err != nil {
		t.Fatalf("relocation failed under SAT engine: %v", err)
	}
	if j.Stats.GlobalSteps == 0 {
		t.Error("expected a global justification step")
	}
	if j.Stats.Conflicts != 0 {
		t.Errorf("conflicts = %d, want 0", j.Stats.Conflicts)
	}
	out, err := m.Rebuild("fig5sat")
	if err != nil {
		t.Fatal(err)
	}
	// Verify the justified values satisfy both constraints for all
	// completions (same check as the BDD test).
	var sa, sb, sc logic.Bit = logic.BX, logic.BX, logic.BX
	out.LiveRegs(func(rg *netlist.Reg) {
		switch out.Signals[rg.D].Name {
		case "a":
			sa = rg.SRVal
		case "b":
			sb = rg.SRVal
		case "c":
			sc = rg.SRVal
		}
	})
	for _, va := range completions(sa) {
		for _, vb := range completions(sb) {
			for _, vc := range completions(sc) {
				and := va && vb
				if !(and || vc) || and {
					t.Errorf("constraints violated: a=%v b=%v c=%v", va, vb, vc)
				}
			}
		}
	}
}

func TestSATEngineDetectsUnresolvable(t *testing.T) {
	c := netlist.New("conflict")
	a := c.AddInput("a")
	b := c.AddInput("b")
	clk := c.AddInput("clk")
	rst := c.AddInput("rst")
	_, z := c.AddGate("v2", netlist.And, []netlist.SignalID{a, b}, 100)
	_, o3 := c.AddGate("v3", netlist.Nand, []netlist.SignalID{z}, 100)
	_, o4 := c.AddGate("v4", netlist.Not, []netlist.SignalID{z}, 100)
	_, q3 := syncReg(c, "r3", o3, clk, rst, logic.B0)
	_, q4 := syncReg(c, "r4", o4, clk, rst, logic.B1)
	c.MarkOutput(q3)
	c.MarkOutput(q4)
	m, err := mcgraph.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	j := New(m)
	j.Engine = EngineSAT
	r := make([]int32, len(m.Verts))
	for i, v := range m.Verts {
		if v.Kind == mcgraph.KGate {
			r[i] = 1
		}
	}
	if _, err := m.Relocate(r, j); err == nil {
		t.Fatal("unresolvable conflict accepted by SAT engine")
	}
}

// Differential test: BDD and SAT engines must agree on resolvability and
// produce equally valid reset assignments across random relocations.
func TestEnginesAgreeOnRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 40; iter++ {
		c := netlist.New("rnd")
		clk := c.AddInput("clk")
		rst := c.AddInput("rst")
		pool := []netlist.SignalID{c.AddInput("a"), c.AddInput("b"), c.AddInput("c")}
		types := []netlist.GateType{netlist.And, netlist.Or, netlist.Nand, netlist.Nor, netlist.Xor, netlist.Not}
		for i := 0; i < 12; i++ {
			gt := types[rng.Intn(len(types))]
			n := 2
			if gt == netlist.Not {
				n = 1
			}
			in := make([]netlist.SignalID, n)
			for j := range in {
				in[j] = pool[rng.Intn(len(pool))]
			}
			_, o := c.AddGate("", gt, in, 100)
			pool = append(pool, o)
			if rng.Intn(3) == 0 {
				_, q := syncReg(c, "", o, clk, rst, logic.Bit(rng.Intn(3)))
				c.MarkOutput(q)
			}
		}
		c.MarkOutput(pool[len(pool)-1])
		if c.NumRegs() == 0 {
			continue
		}

		run := func(engine Engine) (bool, *Stats) {
			m, err := mcgraph.Build(c)
			if err != nil {
				t.Fatal(err)
			}
			info, err := m.ComputeBounds(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			r := make([]int32, len(m.Verts))
			for v := range m.Verts {
				if info.RMax[v] > 0 {
					r[v] = 1 // one backward step wherever possible
				}
			}
			j := New(m)
			j.Engine = engine
			_, err = m.Relocate(r, j)
			return err == nil, &j.Stats
		}
		okBDD, statsBDD := run(EngineBDD)
		okSAT, statsSAT := run(EngineSAT)
		if okBDD != okSAT {
			t.Fatalf("iter %d: engines disagree: BDD ok=%v (%+v), SAT ok=%v (%+v)",
				iter, okBDD, statsBDD, okSAT, statsSAT)
		}
	}
}
