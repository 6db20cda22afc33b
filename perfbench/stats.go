package main

import (
	"fmt"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported tail percentile.
const minTail = 10

// Summary is a latency distribution reduced to its median and the highest
// percentile with at least minTail samples beyond it.
type Summary struct {
	N       int     `json:"n"`        // sample count
	P50     float64 `json:"p50"`      // median
	Tail    float64 `json:"tail"`     // value with exactly minTail samples above it
	TailPct float64 `json:"tail_pct"` // the percentile Tail sits at, 100·(N−minTail)/N
}

// Summarize computes the median and tail of xs. It fails when fewer than
// minTail+1 samples exist, since no percentile then has minTail beyond it.
func Summarize(xs []float64) (Summary, error) {
	n := len(xs)
	if n <= minTail {
		return Summary{N: n}, fmt.Errorf("%d samples: a tail needs at least %d", n, minTail+1)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Summary{
		N:       n,
		P50:     median(s),
		Tail:    s[n-minTail-1],
		TailPct: 100 * float64(n-minTail) / float64(n),
	}, nil
}

// Median returns the median of xs (0 for none).
func Median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// SpanRec is one timed region in a span tree: Parent indexes the enclosing
// span in the same slice, -1 for a root.
type SpanRec struct {
	Name     string
	Start    time.Duration
	Duration time.Duration
	Parent   int
}

// SelfTimes returns each span's duration minus the part of its interval
// covered by its children. Children may overlap one another (parallel
// stages); the covered part is their union, clipped to the parent.
func SelfTimes(spans []SpanRec) []time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := make([][]iv, len(spans))
	for _, sp := range spans {
		if sp.Parent >= 0 {
			kids[sp.Parent] = append(kids[sp.Parent], iv{sp.Start, sp.Start + sp.Duration})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, sp := range spans {
		lo, hi := sp.Start, sp.Start+sp.Duration
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, end time.Duration
		end = lo
		for _, k := range ivs {
			a, b := max(k.lo, end), min(k.hi, hi)
			if b > a {
				covered += b - a
				end = b
			}
		}
		out[i] = sp.Duration - covered
	}
	return out
}

// Lateness is the open-loop generator's schedule accounting: how far behind
// each request's due time it was actually sent.
type Lateness struct {
	late []float64 // ms, one per request
}

// Record notes one request sent at sent that was due at due. Sending early
// counts as zero lateness.
func (l *Lateness) Record(due, sent time.Time) {
	d := sent.Sub(due)
	if d < 0 {
		d = 0
	}
	l.late = append(l.late, ms(d))
}

// Count is the number of requests recorded.
func (l *Lateness) Count() int { return len(l.late) }

// Worst returns the tail lateness in ms: the highest percentile with minTail
// requests beyond it, or the maximum when there are too few requests.
func (l *Lateness) Worst() float64 {
	if s, err := Summarize(l.late); err == nil {
		return s.Tail
	}
	worst := 0.0
	for _, v := range l.late {
		worst = max(worst, v)
	}
	return worst
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
