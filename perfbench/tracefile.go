package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mcretiming/internal/trace"
)

// chromeEvent is one complete event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace collects the spans of a traced run, kept in memory and written
// once at the end. Offsets are from the trace's epoch; tid separates
// concurrent requests.
type chromeTrace struct {
	epoch  time.Time
	events []chromeEvent
}

func newChromeTrace() *chromeTrace { return &chromeTrace{epoch: time.Now()} }

func (t *chromeTrace) add(name string, start time.Time, dur time.Duration, tid int, args map[string]any) {
	t.events = append(t.events, chromeEvent{Name: name, Ph: "X",
		Ts: us(start.Sub(t.epoch)), Dur: us(dur), Pid: 1, Tid: tid, Args: args})
}

// addRecorder copies a recorder's spans, whose offsets count from base, with
// their counters as args.
func (t *chromeTrace) addRecorder(rec *trace.Recorder, base time.Time, tid int) {
	for _, sp := range rec.Spans() {
		var args map[string]any
		if len(sp.Counters) > 0 {
			args = map[string]any{}
			for k, v := range sp.Counters {
				args[k] = v
			}
		}
		t.add(sp.Name, base.Add(sp.Start), sp.Duration, tid, args)
	}
}

func (t *chromeTrace) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(t.events)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
