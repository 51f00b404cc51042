package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// Sink receives completed spans (as they end, from any goroutine) and
// metric snapshots (on Flush/Close). Implementations must be safe for
// concurrent use.
type Sink interface {
	Span(SpanData)
	MetricSnapshot([]Metric)
	Close() error
}

// NopSink discards everything — the default sink, so an observer can be
// installed for Snapshot-based tests without writing anywhere.
type NopSink struct{}

func (NopSink) Span(SpanData)           {}
func (NopSink) MetricSnapshot([]Metric) {}
func (NopSink) Close() error            { return nil }

// MemSink records spans and the latest metric snapshot in memory, for
// tests and the bench harness. The zero value is ready to use.
type MemSink struct {
	mu    sync.Mutex
	spans []SpanData
	last  []Metric
}

func (m *MemSink) Span(s SpanData) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.spans = append(m.spans, s)
}

func (m *MemSink) MetricSnapshot(ms []Metric) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.last = append([]Metric{}, ms...)
}

func (m *MemSink) Close() error { return nil }

// Spans returns the completed spans in End order.
func (m *MemSink) Spans() []SpanData {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]SpanData{}, m.spans...)
}

// Metrics returns the latest snapshot (nil before the first Flush).
func (m *MemSink) Metrics() []Metric {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Metric{}, m.last...)
}

// Metric looks a name up in the latest snapshot.
func (m *MemSink) Metric(name string) (Metric, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, mt := range m.last {
		if mt.Name == name {
			return mt, true
		}
	}
	return Metric{}, false
}

// JSONLSink writes one JSON object per line: spans as they end
// ("type":"span") and one line per metric at each snapshot
// ("type":"metric"), machine-readable by anything that reads JSON lines.
//
// Writes are buffered; Flush (or the periodic flusher started with
// FlushEvery) pushes buffered lines to the OS so a long-running process
// that crashes loses at most one flush interval of telemetry instead of
// everything since startup. Close flushes and stops any flusher.
type JSONLSink struct {
	mu  sync.Mutex
	f   *os.File
	w   *bufio.Writer
	enc *json.Encoder
	err error

	stopFlush chan struct{}
	flushDone chan struct{}
}

// NewJSONLSink creates (truncating) the file at path.
func NewJSONLSink(path string) (*JSONLSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: jsonl sink: %w", err)
	}
	w := bufio.NewWriter(f)
	return &JSONLSink{f: f, w: w, enc: json.NewEncoder(w)}, nil
}

// Flush writes buffered lines through to the OS. It is safe from any
// goroutine and a no-op when nothing is buffered.
func (j *JSONLSink) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flushLocked()
}

func (j *JSONLSink) flushLocked() error {
	if ferr := j.w.Flush(); ferr != nil && j.err == nil {
		j.err = ferr
	}
	return j.err
}

// FlushEvery starts a background flusher that calls Flush every interval
// until Close. Starting it twice is a no-op; a non-positive interval
// disables it. Long-running processes (vega-serve) use this so telemetry
// survives a crash between snapshots.
func (j *JSONLSink) FlushEvery(interval time.Duration) {
	if interval <= 0 {
		return
	}
	j.mu.Lock()
	if j.stopFlush != nil {
		j.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	j.stopFlush, j.flushDone = stop, done
	j.mu.Unlock()

	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				j.Flush()
			case <-stop:
				return
			}
		}
	}()
}

// jsonlSpan flattens SpanData for the file format: duration in seconds,
// attrs as a plain object.
type jsonlSpan struct {
	Type   string            `json:"type"`
	Name   string            `json:"name"`
	ID     uint64            `json:"id"`
	Parent uint64            `json:"parent,omitempty"`
	Start  string            `json:"start"`
	DurS   float64           `json:"dur_s"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

type jsonlMetric struct {
	Type string `json:"type"`
	Metric
}

func (j *JSONLSink) Span(s SpanData) {
	rec := jsonlSpan{
		Type:   "span",
		Name:   s.Name,
		ID:     s.ID,
		Parent: s.Parent,
		Start:  s.Start.Format("2006-01-02T15:04:05.000000Z07:00"),
		DurS:   s.Dur.Seconds(),
	}
	if len(s.Attrs) > 0 {
		rec.Attrs = make(map[string]string, len(s.Attrs))
		for _, a := range s.Attrs {
			rec.Attrs[a.Key] = a.Value
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err == nil {
		j.err = j.enc.Encode(rec)
	}
}

func (j *JSONLSink) MetricSnapshot(ms []Metric) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, m := range ms {
		if j.err != nil {
			return
		}
		j.err = j.enc.Encode(jsonlMetric{Type: "metric", Metric: m})
	}
}

// Close stops the periodic flusher (if any), flushes buffered lines, and
// closes the file, returning the first write error if any.
func (j *JSONLSink) Close() error {
	j.mu.Lock()
	stop, done := j.stopFlush, j.flushDone
	j.stopFlush, j.flushDone = nil, nil
	j.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.flushLocked()
	cerr := j.f.Close()
	if j.err != nil {
		return j.err
	}
	return cerr
}
