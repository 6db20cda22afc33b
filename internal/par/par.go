// Package par is the bounded worker-pool layer under the parallel stages of
// the retiming engine: W/D row computation, the two maximal-retiming sweeps,
// separation-vertex analysis, period-cut trace-back, and the per-domain
// justification solves all fan out through it.
//
// The contract every caller relies on:
//
//   - Determinism. Work items are identified by index and results land in
//     index-addressed slots owned by exactly one item, so the output of a
//     parallel run is bit-identical to the serial one regardless of worker
//     count or scheduling.
//   - Bounded workers. At most Workers(n) goroutines run; requests ≤ 1 (and
//     single-item runs) execute inline on the caller's goroutine with no
//     channel or goroutine overhead, keeping the serial path allocation-free.
//   - Cancellation. The context is polled between work items; the first
//     error (or the context's) stops the pool and is returned.
//   - Observability. Run reports per-pool Stats (workers used, items done,
//     summed busy time vs wall time) so callers can record worker counts and
//     achieved speedup into trace span counters.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Workers resolves a requested parallelism degree: values ≤ 0 mean
// runtime.GOMAXPROCS(0); the result is always ≥ 1.
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 1
}

// Stats describes one pool run for trace metrics.
type Stats struct {
	Workers int           // goroutines actually used (1 = ran inline)
	Items   int           // work items completed
	Busy    time.Duration // summed per-worker busy time
	Wall    time.Duration // wall time of the whole run
}

// SpeedupX1000 returns the achieved parallel speedup (total busy time over
// wall time) scaled by 1000, the fixed-point form the integer-valued trace
// counters carry. A serial run reports ~1000.
func (s Stats) SpeedupX1000() int64 {
	if s.Wall <= 0 {
		return 1000
	}
	return int64(s.Busy) * 1000 / int64(s.Wall)
}

// Run executes fn(worker, item) for every item in [0, items), distributing
// items dynamically over min(workers, items) goroutines. Item indices are
// handed out through an atomic counter, so long and short items balance; the
// caller must ensure distinct items touch disjoint state (typically: item i
// owns slot i of a result slice).
//
// The context is polled before every item. The first error — fn's or the
// context's — stops the pool; Run returns it after all workers have parked.
// With workers ≤ 1 or items ≤ 1 everything runs inline on the calling
// goroutine.
func Run(ctx context.Context, workers, items int, fn func(worker, item int) error) (Stats, error) {
	st := Stats{Workers: 1}
	if items <= 0 {
		return st, ctx.Err()
	}
	start := time.Now()
	if workers > items {
		workers = items
	}
	if workers <= 1 {
		for i := 0; i < items; i++ {
			if err := ctx.Err(); err != nil {
				st.Wall = time.Since(start)
				st.Busy = st.Wall
				return st, err
			}
			if err := fn(0, i); err != nil {
				st.Wall = time.Since(start)
				st.Busy = st.Wall
				return st, err
			}
			st.Items++
		}
		st.Wall = time.Since(start)
		st.Busy = st.Wall
		return st, nil
	}

	var (
		next int64 // next item to hand out
		done int64 // items completed
		busy int64 // summed busy nanoseconds
		wg   sync.WaitGroup
		mu   sync.Mutex
		ferr error
	)
	fail := func(err error) {
		mu.Lock()
		if ferr == nil {
			ferr = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return ferr != nil
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			t0 := time.Now()
			defer func() { atomic.AddInt64(&busy, int64(time.Since(t0))) }()
			for {
				if failed() {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= items {
					return
				}
				if err := fn(worker, i); err != nil {
					fail(err)
					return
				}
				atomic.AddInt64(&done, 1)
			}
		}(w)
	}
	wg.Wait()
	st.Workers = workers
	st.Items = int(done)
	st.Busy = time.Duration(busy)
	st.Wall = time.Since(start)
	return st, ferr
}

// Do runs the given thunks concurrently on up to workers goroutines (inline
// when workers ≤ 1) and returns the first error. It is the small-fan-out
// companion to Run for stages with a fixed handful of independent halves,
// such as the sync/async justification domains.
func Do(ctx context.Context, workers int, fns ...func() error) error {
	_, err := Run(ctx, workers, len(fns), func(_, i int) error { return fns[i]() })
	return err
}
