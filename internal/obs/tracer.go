package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Tracer streams events as NDJSON to a sink. It is safe for concurrent use
// (sweep workers emit from many goroutines) and nil-safe: every method on a
// nil *Tracer is a no-op, so instrumentation sites pass events by value and
// pay zero allocations while tracing is disabled.
//
// Events are written in arrival order. A single-threaded emitter (the
// simulation engine) therefore produces a byte-deterministic stream for a
// given seed; concurrent emitters (sweep workers) interleave arbitrarily.
//
// With derives stamping children that share the parent's sink: a child
// fills empty Trace/Span/Worker fields on every event it emits, which is
// how fabric workers attribute their job runs to a campaign's trace
// context without the instrumented code knowing about spans.
type Tracer struct {
	core                *tracerCore
	trace, span, worker string
}

// tracerCore is the sink state shared by a tracer and all its With
// children: one writer, one mutex, one error latch, one event count, and
// the encoder with the buffer each event is encoded into, both reused.
type tracerCore struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc eventEncoder
	buf []byte
	n   int64
	err error
}

// NewTracer returns a tracer writing NDJSON events to w. Call Flush (or
// Close) before reading the sink: writes are buffered.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{core: &tracerCore{bw: bufio.NewWriter(w), buf: make([]byte, 0, 512)}}
}

// With returns a child tracer sharing t's sink that stamps the given
// trace/span/worker onto every event whose corresponding field is empty.
// Empty arguments inherit t's own stamps; a nil receiver returns nil.
func (t *Tracer) With(trace, span, worker string) *Tracer {
	if t == nil {
		return nil
	}
	child := &Tracer{core: t.core, trace: t.trace, span: t.span, worker: t.worker}
	if trace != "" {
		child.trace = trace
	}
	if span != "" {
		child.span = span
	}
	if worker != "" {
		child.worker = worker
	}
	return child
}

// Emit writes one event, stamping the schema version and any trace context
// this tracer carries. The line is the one json.Encoder writes for the
// event; an event that does not encode (a NaN or infinite float) writes
// nothing. After the first such error or sink error the tracer goes quiet;
// check Err.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	ev.V = SchemaVersion
	if ev.Trace == "" {
		ev.Trace = t.trace
	}
	if ev.Span == "" {
		ev.Span = t.span
	}
	if ev.Worker == "" {
		ev.Worker = t.worker
	}
	c := t.core
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return
	}
	b, err := c.enc.appendEvent(c.buf[:0], &ev)
	c.buf = b
	if err == nil {
		_, err = c.bw.Write(b)
	}
	if err != nil {
		c.err = fmt.Errorf("obs: emit: %w", err)
		return
	}
	c.n++
}

// Count returns how many events were successfully encoded on the shared
// sink (children count toward their parent).
func (t *Tracer) Count() int64 {
	if t == nil {
		return 0
	}
	t.core.mu.Lock()
	defer t.core.mu.Unlock()
	return t.core.n
}

// Err returns the first sink error, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.core.mu.Lock()
	defer t.core.mu.Unlock()
	return t.core.err
}

// Flush forces buffered events to the sink.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	c := t.core
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	if err := c.bw.Flush(); err != nil {
		c.err = fmt.Errorf("obs: flush: %w", err)
	}
	return c.err
}

// ReadEvents parses an NDJSON event stream, rejecting lines from an
// incompatible schema version. Blank lines are skipped.
func ReadEvents(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", line, err)
		}
		if ev.V != SchemaVersion {
			return nil, fmt.Errorf("obs: line %d: schema %q, want %q", line, ev.V, SchemaVersion)
		}
		if ev.Type == "" {
			return nil, fmt.Errorf("obs: line %d: event without a type", line)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: read events: %w", err)
	}
	return out, nil
}
