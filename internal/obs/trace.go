// Chrome trace_event export: the recorder can keep a bounded timeline of
// region spans, barrier waits, redistributions and page events, written as
// the JSON object format chrome://tracing and Perfetto load. Timestamps
// are simulated time converted to microseconds at the machine clock.
//
// Two modes:
//
//   - buffered (EnableTrace alone): events accumulate in memory up to a
//     cap — DefaultTraceEvents, overridable by the maxEvents argument or
//     the DSM_TRACE_EVENTS environment variable — and WriteTrace emits
//     them at the end of the run; events past the cap are counted as
//     dropped.
//   - streaming (SetTraceSink): events drain to a StreamSink at flush
//     points (region boundaries, Finish, and every sinkFlushEvery
//     events), so memory stays bounded by the
//     flush interval and a crash mid-run leaves a loadable partial spool.
package obs

import (
	"encoding/json"
	"io"
	"os"
	"strconv"
)

// TraceEvent is one Chrome trace_event record.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Trace process ids: processor tracks vs page/memory tracks.
const (
	pidProcs = 0
	pidPages = 1
)

// DefaultTraceEvents bounds a trace unless EnableTrace or the
// DSM_TRACE_EVENTS environment variable says otherwise.
const DefaultTraceEvents = 1 << 20

// sinkFlushEvery bounds how many events sit in memory between the
// structural flush points when a sink is attached.
const sinkFlushEvery = 1024

// EnvTraceEvents overrides the in-memory event cap when set to a positive
// integer (flags still win over the environment).
const EnvTraceEvents = "DSM_TRACE_EVENTS"

// Trace is the bounded event buffer, optionally draining to a sink.
type Trace struct {
	events  []TraceEvent
	max     int
	dropped int64
	sink    StreamSink
	emitted int64 // events handed to the sink
}

// envTraceCap reads the DSM_TRACE_EVENTS override, or 0.
func envTraceCap() int {
	if v := os.Getenv(EnvTraceEvents); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 0
}

// EnableTrace turns timeline collection on, keeping at most maxEvents
// events in memory (<=0 means the DSM_TRACE_EVENTS environment override,
// or DefaultTraceEvents).
func (r *Recorder) EnableTrace(maxEvents int) {
	if r == nil {
		return
	}
	if maxEvents <= 0 {
		maxEvents = envTraceCap()
	}
	if maxEvents <= 0 {
		maxEvents = DefaultTraceEvents
	}
	r.trace = &Trace{max: maxEvents}
}

// SetTraceSink attaches a stream sink; EnableTrace must have been called.
// Events already buffered spill to the sink immediately, and from here on
// the in-memory buffer only stages events between flush points, so the cap
// no longer drops anything.
func (r *Recorder) SetTraceSink(s StreamSink) {
	if r == nil || r.trace == nil {
		return
	}
	r.trace.sink = s
	r.trace.flushSink()
}

// TraceEnabled reports whether the recorder keeps a timeline.
func (r *Recorder) TraceEnabled() bool { return r != nil && r.trace != nil }

// TraceEvents returns the buffered events (tests, exporters). With a sink
// attached the buffer holds only events not yet flushed — use the spool.
func (r *Recorder) TraceEvents() []TraceEvent {
	if r == nil || r.trace == nil {
		return nil
	}
	return r.trace.events
}

// TraceCount returns the total events recorded, including events already
// drained to a sink and events dropped at the cap.
func (r *Recorder) TraceCount() int64 {
	if r == nil || r.trace == nil {
		return 0
	}
	t := r.trace
	return t.emitted + int64(len(t.events)) + t.dropped
}

// TraceDropped returns how many events were discarded at the cap.
func (r *Recorder) TraceDropped() int64 {
	if r == nil || r.trace == nil {
		return 0
	}
	return r.trace.dropped
}

// FlushTrace drains buffered events to the attached sink (no-op without
// one). Exporters call it before reading the spool mid-run.
func (r *Recorder) FlushTrace() error {
	if r == nil || r.trace == nil || r.trace.sink == nil {
		return nil
	}
	r.trace.flushSink()
	return r.trace.sink.Flush()
}

func (t *Trace) add(ev TraceEvent) {
	if t.sink == nil && len(t.events) >= t.max {
		t.dropped++
		return
	}
	t.events = append(t.events, ev)
	if t.sink != nil && len(t.events) >= sinkFlushEvery {
		t.flushSink()
	}
}

// flushSink hands buffered events to the sink in order.
func (t *Trace) flushSink() {
	if t.sink == nil || len(t.events) == 0 {
		return
	}
	for i := range t.events {
		t.sink.Emit(&t.events[i])
	}
	t.emitted += int64(len(t.events))
	t.events = t.events[:0]
}

func (t *Trace) span(name, cat string, proc int, ts, dur float64, args map[string]any) {
	t.add(TraceEvent{Name: name, Cat: cat, Ph: "X", Ts: ts, Dur: dur,
		Pid: pidProcs, Tid: proc, Args: args})
}

func (t *Trace) instant(name, cat string, node int, ts float64, args map[string]any) {
	t.add(TraceEvent{Name: name, Cat: cat, Ph: "i", Ts: ts, S: "t",
		Pid: pidPages, Tid: node, Args: args})
}

func (t *Trace) counters(ts float64, local, remote, tlb int64) {
	t.add(TraceEvent{Name: "L2 misses", Ph: "C", Ts: ts, Pid: pidProcs, Tid: 0,
		Args: map[string]any{"local": local, "remote": remote}})
	t.add(TraceEvent{Name: "TLB misses", Ph: "C", Ts: ts, Pid: pidProcs, Tid: 0,
		Args: map[string]any{"misses": tlb}})
}

// traceFile is the on-disk JSON object format.
type traceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// traceMeta returns the metadata events naming the processor and page
// tracks, prepended to every exported trace.
func traceMeta() []TraceEvent {
	return []TraceEvent{
		{Name: "process_name", Ph: "M", Pid: pidProcs,
			Args: map[string]any{"name": "processors"}},
		{Name: "process_name", Ph: "M", Pid: pidPages,
			Args: map[string]any{"name": "pages"}},
	}
}

// WriteTrace writes the timeline as Chrome trace-event JSON. Metadata
// events naming the processor and page tracks are prepended.
func (r *Recorder) WriteTrace(w io.Writer) error {
	evs := traceMeta()
	if r != nil && r.trace != nil {
		evs = append(evs, r.trace.events...)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: evs, DisplayTimeUnit: "ms"})
}
