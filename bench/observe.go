package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"dynamicdf/internal/sim"
)

// timedScheduler times Deploy and Adapt from outside the scheduler, at two
// clock reads per call. View and Control pass through untouched: core
// type-asserts Control to sim.DecisionSink, and a wrapped Control would
// silently drop decision provenance.
type timedScheduler struct {
	inner  sim.Scheduler
	deploy time.Duration
	adapts []time.Duration

	// spans, when set, receives a core.adapt span per call under parent.
	spans  *spanLog
	parent int
}

func (t *timedScheduler) Name() string { return t.inner.Name() }

func (t *timedScheduler) Deploy(v *sim.View, act sim.Control) error {
	start := time.Now()
	err := t.inner.Deploy(v, act)
	t.deploy += time.Since(start)
	return err
}

func (t *timedScheduler) Adapt(v *sim.View, act sim.Control) error {
	id := t.spans.begin(t.parent, "core.adapt")
	start := time.Now()
	err := t.inner.Adapt(v, act)
	t.adapts = append(t.adapts, time.Since(start))
	t.spans.end(id)
	return err
}

// timedStateful is a timedScheduler over a sim.StatefulScheduler. It forwards
// the checkpoint hooks, so a checkpointed wrapped run carries the policy's
// state exactly as an unwrapped one does.
type timedStateful struct {
	*timedScheduler
	ss sim.StatefulScheduler
}

func (t timedStateful) CheckpointState() ([]byte, error) { return t.ss.CheckpointState() }
func (t timedStateful) RestoreState(b []byte) error      { return t.ss.RestoreState(b) }

// timeScheduler wraps s; the returned scheduler drives the run and the
// timedScheduler holds its timings. The wrapper is stateful exactly when s is.
func timeScheduler(s sim.Scheduler) (sim.Scheduler, *timedScheduler) {
	t := &timedScheduler{inner: s}
	if ss, ok := s.(sim.StatefulScheduler); ok {
		return timedStateful{t, ss}, t
	}
	return t, t
}

// span is one timed layer call of a traced run. Parent is the id of the
// enclosing span, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// spanLog keeps a traced run's spans in memory; writeFile saves them with
// the self time per span name once the run ends.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span under parent and returns its id; a nil log records
// nothing, so untraced code paths call it unconditionally.
func (l *spanLog) begin(parent int, name string) int {
	if l == nil {
		return 0
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(l.spans)
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// selfTime is the per-name total of each span's duration minus the part its
// child spans cover. Children of one span never overlap: every span is
// opened and closed on the goroutine of its parent.
func (l *spanLog) selfTime() map[string]time.Duration {
	child := make([]int64, len(l.spans)+1)
	for _, s := range l.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for _, s := range l.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

func (l *spanLog) writeFile(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	self := map[string]float64{}
	for name, d := range l.selfTime() {
		self[name] = ms(d)
	}
	doc, err := json.Marshal(struct {
		Spans  []span             `json:"spans"`
		SelfMs map[string]float64 `json:"selfMs"`
	}{l.spans, self})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, doc, 0o644)
}

// decisionCounter is an io.Writer sink for an obs.Tracer that counts the
// decision events by kind, splitting fair-share rulings into grants and
// denials. Events arrive as NDJSON lines; only decision lines are decoded.
type decisionCounter struct {
	mu     sync.Mutex
	buf    []byte
	counts map[string]int
}

func newDecisionCounter() *decisionCounter { return &decisionCounter{counts: map[string]int{}} }

func (c *decisionCounter) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf = append(c.buf, p...)
	for {
		i := bytes.IndexByte(c.buf, '\n')
		if i < 0 {
			break
		}
		c.count(c.buf[:i])
		c.buf = c.buf[i+1:]
	}
	return len(p), nil
}

func (c *decisionCounter) count(line []byte) {
	if !bytes.Contains(line, []byte(`"type":"decision"`)) {
		return
	}
	var ev struct {
		Decision struct {
			Kind   string `json:"kind"`
			Chosen string `json:"chosen"`
		} `json:"decision"`
	}
	if json.Unmarshal(line, &ev) != nil {
		c.counts["unparsed"]++
		return
	}
	kind := ev.Decision.Kind
	if kind == "fair-share" {
		kind += "-deny"
		if strings.HasPrefix(ev.Decision.Chosen, "grant") {
			kind = "fair-share-grant"
		}
	}
	c.counts[kind]++
}

func (c *decisionCounter) snapshot() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.counts))
	for k, v := range c.counts {
		out[k] = v
	}
	return out
}

// settle starts a batch from a collected heap whose free pages are returned
// to the OS, with the resident-set high-water mark reset to the resident set
// that is left, so each batch's peak is its own and not pages an earlier
// batch left mapped.
func settle() {
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM (proc(5)); where that is not
	// permitted the peak stays a whole-process peak.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// heapAllocMB reads the bytes the Go heap has allocated since the process
// started, in MB.
func heapAllocMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb / 1024, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
