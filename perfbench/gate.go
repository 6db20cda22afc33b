package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"mcretiming/internal/blif"
	"mcretiming/internal/netlist"
	"mcretiming/internal/verify"
	"mcretiming/internal/xc4000"
)

// Size is a design's input size as recorded in a run's output: vertices are
// live gates plus ports, edges are gate input pins plus register data pins
// plus output ports.
type Size struct {
	Vertices  int `json:"vertices"`
	Edges     int `json:"edges"`
	Registers int `json:"registers"`
}

func sizeOf(c *netlist.Circuit) Size {
	s := Size{Vertices: len(c.PIs) + len(c.POs), Edges: len(c.POs)}
	c.LiveGates(func(g *netlist.Gate) {
		s.Vertices++
		s.Edges += len(g.In)
	})
	c.LiveRegs(func(*netlist.Reg) {
		s.Registers++
		s.Edges++
	})
	return s
}

// digest names an output by the SHA-256 of its BLIF text.
func digest(blifText []byte) string {
	sum := sha256.Sum256(blifText)
	return hex.EncodeToString(sum[:8])
}

func blifBytes(c *netlist.Circuit) ([]byte, error) {
	var buf bytes.Buffer
	if err := blif.Write(&buf, c); err != nil {
		return nil, fmt.Errorf("write blif: %w", err)
	}
	return buf.Bytes(), nil
}

// checkOutput is the correctness gate for one retimed design, independent of
// the retimer: the output must be sequentially equivalent to the input under
// random simulation with a reset pulse, and its static period must not
// exceed the period the program reported. It returns the output's static
// period.
func checkOutput(in, out *netlist.Circuit, reported int64, seed int64) (int64, error) {
	var pulse []string
	for _, pi := range in.PIs {
		if name := in.SignalName(pi); name == "rst" || name == "arst" {
			pulse = append(pulse, name)
		}
	}
	res, err := verify.Equivalent(in, out, verify.Stimulus{Seed: seed, ResetPulse: pulse, Skip: 2})
	if err != nil {
		return 0, fmt.Errorf("%s: not equivalent: %w", in.Name, err)
	}
	if res.Compared == 0 {
		return 0, fmt.Errorf("%s: equivalence check compared no known outputs", in.Name)
	}
	period, err := xc4000.Period(out)
	if err != nil {
		return 0, fmt.Errorf("%s: static period: %w", in.Name, err)
	}
	if period > reported {
		return 0, fmt.Errorf("%s: static period %d ps exceeds the reported %d ps", in.Name, period, reported)
	}
	return period, nil
}

// gate memoises checkOutput per design: outputs are deterministic, so a
// design's first output is simulated and every repeat is checked by its
// digest. A design whose digest changes between repetitions fails, whether
// or not the new output is also correct.
type gate struct {
	seed    int64
	first   map[string]verdict // design → its first output's digest and verdict
	periods map[string]int64   // design → static period of its first output
	errs    []error
}

type verdict struct {
	digest string
	ok     bool
}

func newGate(seed int64) *gate {
	return &gate{seed: seed, first: map[string]verdict{}, periods: map[string]int64{}}
}

// check gates one output of design name and reports whether it passed.
func (g *gate) check(name string, in, out *netlist.Circuit, reported int64) bool {
	text, err := blifBytes(out)
	if err != nil {
		g.errs = append(g.errs, fmt.Errorf("%s: %w", name, err))
		return false
	}
	d := digest(text)
	if prev, ok := g.first[name]; ok {
		if prev.digest != d {
			g.errs = append(g.errs, fmt.Errorf("%s: output digest %s differs from the first run's %s", name, d, prev.digest))
			return false
		}
		return prev.ok
	}
	period, err := checkOutput(in, out, reported, g.seed)
	g.first[name] = verdict{digest: d, ok: err == nil}
	if err != nil {
		g.errs = append(g.errs, err)
		return false
	}
	g.periods[name] = period
	return true
}

// digests returns every design's first-output digest.
func (g *gate) digests() map[string]string {
	out := make(map[string]string, len(g.first))
	for name, v := range g.first {
		out[name] = v.digest
	}
	return out
}
