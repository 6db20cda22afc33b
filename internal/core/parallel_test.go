package core

import (
	"runtime"
	"strings"
	"testing"

	"mcretiming/internal/gen"
	"mcretiming/internal/hdlio"
	"mcretiming/internal/netlist"
	"mcretiming/internal/xc4000"
)

// circuitText serializes a circuit for bit-identical comparison.
func circuitText(t *testing.T, c *netlist.Circuit) string {
	t.Helper()
	var sb strings.Builder
	if err := hdlio.Write(&sb, c); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// parallelismLevels are the engine settings the determinism tests sweep:
// forced serial, two workers, and the GOMAXPROCS default.
func parallelismLevels() []int {
	levels := []int{1, 2}
	if gm := runtime.GOMAXPROCS(0); gm != 1 && gm != 2 {
		levels = append(levels, gm)
	}
	return levels
}

// TestRetimeParallelismDeterministic is the engine's whole-flow determinism
// contract: the retimed circuit and every result column of the report must be
// bit-identical at parallelism 1, 2, and GOMAXPROCS. Run with -race this is
// also the concurrency stress test over the mapped internal/gen profiles —
// all parallel stages (W/D rows, sharing analysis, period-cut trace-back,
// justification domains) execute under the race detector.
func TestRetimeParallelismDeterministic(t *testing.T) {
	for _, c := range equivCircuits(t) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			ref, refRep, err := Retime(c, Options{Objective: MinAreaAtMinPeriod, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			refText := circuitText(t, ref)
			for _, p := range parallelismLevels()[1:] {
				out, rep, err := Retime(c, Options{Objective: MinAreaAtMinPeriod, Parallelism: p})
				if err != nil {
					t.Fatalf("parallelism %d: %v", p, err)
				}
				if got := circuitText(t, out); got != refText {
					t.Fatalf("parallelism %d: retimed circuit differs from serial result", p)
				}
				if rep.PeriodAfter != refRep.PeriodAfter || rep.RegsAfter != refRep.RegsAfter ||
					rep.StepsMoved != refRep.StepsMoved || rep.StepsPossible != refRep.StepsPossible ||
					rep.NumClasses != refRep.NumClasses ||
					rep.JustifyLocal != refRep.JustifyLocal || rep.JustifyGlobal != refRep.JustifyGlobal ||
					rep.Retries != refRep.Retries {
					t.Fatalf("parallelism %d: report diverged: %+v vs %+v", p, rep, refRep)
				}
				if rep.Workers != p {
					t.Fatalf("parallelism %d: Report.Workers = %d", p, rep.Workers)
				}
			}
		})
	}
}

// TestRetimeParallelismDefault checks Parallelism 0 resolves to GOMAXPROCS.
func TestRetimeParallelismDefault(t *testing.T) {
	c, err := gen.Circuit(1)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := xc4000.Map(xc4000.DecomposeSyncResets(c))
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := Retime(mapped, Options{Objective: MinAreaAtMinPeriod})
	if err != nil {
		t.Fatal(err)
	}
	if want := runtime.GOMAXPROCS(0); rep.Workers != want {
		t.Fatalf("Report.Workers = %d, want GOMAXPROCS (%d)", rep.Workers, want)
	}
}
