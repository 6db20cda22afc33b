package mcretiming

import (
	"context"
	"io"

	"mcretiming/internal/core"
	"mcretiming/internal/xc4000"
)

// FlowOptions configures RunFlow, the one-call version of the paper's
// experimental script: optimize → decompose unsupported pins → map →
// retime → remap.
type FlowOptions struct {
	// Clean runs the pre-mapping cleanup passes (constant folding, buffer
	// sweep, dead logic removal, structural hashing) first.
	Clean bool
	// DecomposeEN decomposes load enables before mapping — the Table 3
	// baseline. Leave false for multiple-class retiming proper.
	DecomposeEN bool
	// Retime configures the retiming step (zero value = minimum period only,
	// no minarea step, all paper mechanisms on; set Retime.Objective to
	// MinAreaAtMinPeriod for minimal area at the best period).
	Retime Options
	// Trace, when non-nil, receives the retiming step's spans and counters
	// (it overrides Retime.Trace). The mapping phases are not traced.
	Trace TraceSink
}

// FlowResult carries every intermediate artifact of a flow run.
type FlowResult struct {
	Mapped  *Circuit // after decomposition + technology mapping
	Retimed *Circuit // after retiming + remap
	Before  FPGAStats
	After   FPGAStats
	Report  *Report
}

// RunFlow runs the full experimental flow on c (which is not modified).
func RunFlow(c *Circuit, opts FlowOptions) (*FlowResult, error) {
	return RunFlowCtx(context.Background(), c, opts)
}

// RunFlowCtx is RunFlow with cooperative cancellation of the retiming step
// (the mapping phases are fast and run to completion).
func RunFlowCtx(ctx context.Context, c *Circuit, opts FlowOptions) (*FlowResult, error) {
	work := c.Clone()
	if opts.Clean {
		var err error
		if work, _, err = Clean(work); err != nil {
			return nil, err
		}
		if work, _, err = Strash(work); err != nil {
			return nil, err
		}
	}
	work = DecomposeSyncResets(work)
	if opts.DecomposeEN {
		work = DecomposeEnables(work)
	}
	mapped, err := MapXC4000(work)
	if err != nil {
		return nil, err
	}
	res := &FlowResult{Mapped: mapped}
	if res.Before, err = ReportFPGA(mapped); err != nil {
		return nil, err
	}
	ropts := opts.Retime
	if opts.Trace != nil {
		ropts.Trace = opts.Trace
	}
	retimed, rep, err := core.RetimeCtx(ctx, mapped, ropts)
	if err != nil {
		return nil, err
	}
	res.Report = rep
	if res.Retimed, err = MapXC4000(retimed); err != nil {
		return nil, err
	}
	if res.After, err = ReportFPGA(res.Retimed); err != nil {
		return nil, err
	}
	return res, nil
}

// CriticalPathElement is one gate on a reported critical path.
type CriticalPathElement = xc4000.PathElement

// CriticalPath returns the slowest combinational path of c and its delay.
func CriticalPath(c *Circuit) ([]CriticalPathElement, int64, error) {
	return xc4000.CriticalPath(c)
}

// PrintCriticalPath writes a human-readable timing report for c.
func PrintCriticalPath(w io.Writer, c *Circuit) error {
	return xc4000.PrintCriticalPath(w, c)
}

// SlackEntry is one endpoint's setup slack.
type SlackEntry = xc4000.SlackEntry

// SlackReport computes per-endpoint setup slacks against a target period
// (0 = the circuit's own maximum delay), worst first.
func SlackReport(c *Circuit, target int64) ([]SlackEntry, error) {
	return xc4000.SlackReport(c, target)
}

// PrintSlackReport writes the n worst endpoint slacks (all when n <= 0).
func PrintSlackReport(w io.Writer, c *Circuit, target int64, n int) error {
	return xc4000.PrintSlackReport(w, c, target, n)
}
