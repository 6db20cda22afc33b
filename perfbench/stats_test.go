package main

import (
	"testing"
	"time"
)

func TestSummarizeTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 100 {
		t.Errorf("N = %d, want 100", s.N)
	}
	if s.P50 != 50.5 {
		t.Errorf("P50 = %v, want 50.5", s.P50)
	}
	// 90 is the highest value with ten samples (91..100) above it.
	if s.Tail != 90 || s.TailPct != 90 {
		t.Errorf("tail = %v at p%v, want 90 at p90", s.Tail, s.TailPct)
	}
	beyond := 0
	for _, x := range xs {
		if x > s.Tail {
			beyond++
		}
	}
	if beyond < minTail {
		t.Errorf("%d samples beyond the tail, want ≥ %d", beyond, minTail)
	}
	if s.Tail < s.P50 {
		t.Errorf("tail %v below p50 %v", s.Tail, s.P50)
	}
}

func TestSummarizeSmallest(t *testing.T) {
	if _, err := Summarize(make([]float64, minTail)); err == nil {
		t.Fatal("a tail from ten samples must fail: none can have ten beyond it")
	}
	s, err := Summarize([]float64{5, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11})
	if err != nil {
		t.Fatal(err)
	}
	if s.Tail != 1 || s.P50 != 6 || s.N != 11 {
		t.Errorf("got %+v, want tail 1, p50 6, N 11", s)
	}
}

func TestSelfTimes(t *testing.T) {
	msd := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// root [0,100) with children a [10,40) and b [30,60) overlapping, and c
	// [90,120) running past the root's end; a has a child [15,25).
	spans := []SpanRec{
		{"root", msd(0), msd(100), -1},
		{"a", msd(10), msd(30), 0},
		{"a1", msd(15), msd(10), 1},
		{"b", msd(30), msd(30), 0},
		{"c", msd(90), msd(30), 0},
	}
	want := []time.Duration{msd(100 - 50 - 10), msd(20), msd(10), msd(30), msd(30)}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: self %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestLateness(t *testing.T) {
	var l Lateness
	base := time.Unix(0, 0)
	l.Record(base, base.Add(-time.Millisecond)) // early: not late
	for i := 1; i <= 20; i++ {
		l.Record(base, base.Add(time.Duration(i)*time.Millisecond))
	}
	if l.Count() != 21 {
		t.Fatalf("count %d, want 21", l.Count())
	}
	// Sorted: 0, 1..20; the value with ten above it is 10.
	if w := l.Worst(); w != 10 {
		t.Errorf("worst %v ms, want 10", w)
	}
	var few Lateness
	few.Record(base, base.Add(3*time.Millisecond))
	few.Record(base, base.Add(7*time.Millisecond))
	if w := few.Worst(); w != 7 {
		t.Errorf("few samples: worst %v ms, want the maximum 7", w)
	}
}

func TestBandMeansSplitLatency(t *testing.T) {
	var xs []stageSample
	for i := 0; i < 40; i++ {
		st := [4]float64{1, 0.25 * float64(i), float64(i), 0.5}
		xs = append(xs, stageSample{lat: st[0] + st[1] + st[2] + st[3], stages: st})
	}
	for _, center := range []int{0, 20, 39} {
		lat, stages := bandMeans(xs, center)
		sum := stages[0] + stages[1] + stages[2] + stages[3]
		if d := sum - lat; d > 1e-9 || d < -1e-9 {
			t.Errorf("center %d: stages sum to %v, latency %v", center, sum, lat)
		}
	}
	// Near the middle the band is centred: ranks 18..22 for 40 samples.
	if lat, _ := bandMeans(xs, 20); lat != xs[20].lat {
		t.Errorf("band mean %v, want %v", lat, xs[20].lat)
	}
}
