package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of a traced rep. Spans nest by name: parent is
// the name of the enclosing span ("" for the root).
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   string `json:"parent"`
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer times
// without recording, so traced and untraced reps run the same code.
type tracer struct {
	workload string
	rep      int
	epoch    time.Time
	spans    []span
}

func newTracer(workload string, rep int) *tracer {
	return &tracer{workload: workload, rep: rep, epoch: time.Now()}
}

// timed runs fn and returns how long it took, recording a span when tracing.
func (t *tracer) timed(name, parent string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	if t != nil {
		t.spans = append(t.spans, span{
			Name: name, Workload: t.workload, Rep: t.rep, Parent: parent,
			StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
		})
	}
	return end.Sub(start), err
}

// selfTime is a span's duration minus the part its children cover. Children
// of one parent never overlap here (one goroutine records them in sequence).
func (t *tracer) selfTime(name string) time.Duration {
	var self int64
	for _, s := range t.spans {
		switch name {
		case s.Name:
			self += s.EndNS - s.StartNS
		case s.Parent:
			self -= s.EndNS - s.StartNS
		}
	}
	return time.Duration(self)
}

// covered is the share of span name that its direct children account for.
func (t *tracer) covered(name string) float64 {
	var total int64
	for _, s := range t.spans {
		if s.Name == name {
			total += s.EndNS - s.StartNS
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(t.selfTime(name))/float64(total)
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Spans []span `json:"spans"`
	}{t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
