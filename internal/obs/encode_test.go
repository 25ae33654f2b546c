package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"testing"
)

// encodeReference is the encoding the appender must reproduce: the line a
// json.Encoder writes for ev, as Emit wrote it before the appender.
func encodeReference(ev *Event) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(*ev)
	return buf.Bytes(), err
}

// checkAppendEvent fails t unless appendEvent writes exactly the reference
// bytes for ev, or both fail with the same error text.
func checkAppendEvent(t *testing.T, enc *eventEncoder, ev *Event) {
	t.Helper()
	want, wantErr := encodeReference(ev)
	prefix := []byte("prefix ")
	got, gotErr := enc.appendEvent(prefix, ev)
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("event %+v: appender error %v, encoding/json error %v", ev, gotErr, wantErr)
	}
	if wantErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("event %+v: appender error %q, encoding/json error %q", ev, gotErr, wantErr)
		}
		return
	}
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("event %+v: appender overwrote the bytes before it", ev)
	}
	if got = got[len(prefix):]; !bytes.Equal(got, want) {
		t.Fatalf("event %+v:\nappender      %s\nencoding/json %s", ev, got, want)
	}
}

// Edge values: floats at and around encoding/json's format switches, the
// empty and non-finite ones, and strings with every kind of byte the
// string encoder treats specially.
var (
	edgeFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.75, 1e-7, -1e-7, 1e-6, 9.999999e-7,
		1.5e-10, 1e20, 1e21, -1e21, 123456789e13, 5e-324, 2.2250738585072014e-308,
		math.MaxFloat64, 1.7976931348623157e308, 0.1 + 0.2, 1e-300, -0.5,
		120, -3, 1e15, 1<<53 - 1, 1 << 53, 1<<53 + 2, -(1 << 53), -(1<<53 - 1),
		1 << 62, -(1 << 63), 1 << 63, 4503599627370495.5,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	edgeStrings = []string{
		"", "obs/v1", "m1.large", `quote"d`, `back\slash`, "\x00\x01\x1f",
		"tab\tnew\nline\rcr\bbs\fff", "<script>&amp;</script>", "job -> worker",
		"a<b", "b>a", "a&b", "\x1f", "nul\x00",
		"line\u2028para\u2029sep", "bad \xff\xfe utf-8", "é ü 日本", "del \x7f",
		"trunc \xe6\x97", `\u0041`, "\"\\<>&\x00\u2028\xff",
	}
)

func TestAppendEventMatchesEncoder(t *testing.T) {
	var enc eventEncoder
	for _, s := range edgeStrings {
		checkAppendEvent(t, &enc, &Event{V: SchemaVersion, Type: s, Phase: s, Detail: s,
			Trace: s, Span: s, Worker: s, Tenant: s})
		checkAppendEvent(t, &enc, &Event{V: s, Type: EventDecision,
			Decision: &Decision{Kind: s, Tenant: s, Chosen: s, Reason: s,
				Inputs:  map[string]float64{s: 1, s + "x": 2},
				Options: []DecisionOption{{Name: s, Rejected: s}}, Notes: []string{s, s}}})
	}
	for _, f := range edgeFloats {
		checkAppendEvent(t, &enc, &Event{V: SchemaVersion, Type: EventStep, Lost: f})
		checkAppendEvent(t, &enc, &Event{V: SchemaVersion, Type: EventStep, Value: f})
		checkAppendEvent(t, &enc, &Event{V: SchemaVersion, Type: EventDecision,
			Decision: &Decision{Kind: "k", Inputs: map[string]float64{"a": 1, "f": f},
				Options: []DecisionOption{{Name: "o", Score: f}}}})
	}
	for _, n := range []int{0, 1, -1, math.MaxInt64, math.MinInt64} {
		checkAppendEvent(t, &enc, &Event{V: SchemaVersion, Sec: int64(n), Type: EventCrash,
			PE: n, VM: n, N: n, Decision: &Decision{Kind: "k", PE: n}})
	}
	// Keys go out sorted whatever the map's order; empty and nil payloads
	// are omitted.
	inputs := map[string]float64{}
	for _, k := range []string{"zeta", "omega", "maxVMs", "freeSlots", "floor", "alpha", "Beta", "b", "é"} {
		inputs[k] = float64(len(k))
	}
	for i := 0; i < 20; i++ {
		checkAppendEvent(t, &enc, &Event{V: SchemaVersion, Type: EventDecision,
			Decision: &Decision{Kind: "fair-share", Inputs: inputs}})
	}
	checkAppendEvent(t, &enc, &Event{V: SchemaVersion, Type: EventDecision,
		Decision: &Decision{Inputs: map[string]float64{}, Options: []DecisionOption{}, Notes: []string{}}})
	checkAppendEvent(t, &enc, &Event{})
	// The first unsupported value in field order names the error.
	checkAppendEvent(t, &enc, &Event{Lost: math.NaN(), Value: math.Inf(1)})
	checkAppendEvent(t, &enc, &Event{Value: math.Inf(-1), Decision: &Decision{
		Inputs: map[string]float64{"b": math.NaN(), "a": math.Inf(1)}}})
	checkAppendEvent(t, &enc, &Event{Decision: &Decision{
		Inputs: map[string]float64{"b": math.NaN(), "a": math.Inf(1)}}})
	// An event after a failed one encodes cleanly.
	checkAppendEvent(t, &enc, &Event{V: SchemaVersion, Type: EventStep, Value: 0.5})
}

// FuzzAppendEvent compares the appender with json.Encoder on events built
// from the input: strings and floats drawn from the edge tables or taken
// raw from the input bytes, integers, and decisions with inputs, options
// and notes. The two must write the same bytes, or fail with the same
// error.
func FuzzAppendEvent(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10\xff\x03\x02\x05"))
	f.Add([]byte("\x80abcdefgh\x81<&>\xe2\x80\xa8\x90\x05\x04\x03\x02\x01\xff\xff\xff\x07\x07\x07\x07"))
	f.Add(bytes.Repeat([]byte{0xff, 0x13, 0x9f, 0x07}, 32))
	var enc eventEncoder
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzInput{data}
		ev := in.event()
		checkAppendEvent(t, &enc, &ev)
	})
}

// fuzzInput hands out values from fuzz bytes, zeros once they run out.
type fuzzInput struct{ b []byte }

func (in *fuzzInput) byte() byte {
	if len(in.b) == 0 {
		return 0
	}
	c := in.b[0]
	in.b = in.b[1:]
	return c
}

func (in *fuzzInput) uint64() uint64 {
	var w [8]byte
	n := copy(w[:], in.b)
	in.b = in.b[n:]
	return binary.LittleEndian.Uint64(w[:])
}

func (in *fuzzInput) int() int {
	if k := in.byte(); k < 0xc0 {
		return int(k%8) - 2
	}
	return int(in.uint64())
}

func (in *fuzzInput) float() float64 {
	if k := in.byte(); k < 0xc0 {
		return edgeFloats[int(k)%len(edgeFloats)]
	}
	return math.Float64frombits(in.uint64())
}

func (in *fuzzInput) string() string {
	if k := in.byte(); k < 0xc0 {
		return edgeStrings[int(k)%len(edgeStrings)]
	}
	n := min(int(in.byte()%24), len(in.b))
	s := string(in.b[:n])
	in.b = in.b[n:]
	return s
}

func (in *fuzzInput) event() Event {
	ev := Event{V: in.string(), Sec: int64(in.int()), Type: in.string(), Phase: in.string(),
		PE: in.int(), VM: in.int(), N: in.int(), Lost: in.float(), Value: in.float(),
		Detail: in.string(), Trace: in.string(), Span: in.string(), Worker: in.string(),
		Tenant: in.string()}
	if in.byte()%2 == 0 {
		return ev
	}
	d := &Decision{Kind: in.string(), PE: in.int(), Tenant: in.string(),
		Chosen: in.string(), Reason: in.string()}
	if n := int(in.byte() % 6); n > 0 {
		d.Inputs = make(map[string]float64, n)
		for i := 0; i < n; i++ {
			d.Inputs[in.string()] = in.float()
		}
	}
	for n := int(in.byte() % 4); n > 0; n-- {
		d.Options = append(d.Options, DecisionOption{Name: in.string(), Score: in.float(),
			Rejected: in.string()})
	}
	for n := int(in.byte() % 4); n > 0; n-- {
		d.Notes = append(d.Notes, in.string())
	}
	ev.Decision = d
	return ev
}

// TestEmitLatchesEncoderError: an event that does not encode writes
// nothing, and Err carries the message json.Encoder's failure gave.
func TestEmitLatchesEncoderError(t *testing.T) {
	tr := NewTracer(io.Discard)
	tr.Emit(Event{Sec: 60, Type: EventStep, Phase: PhaseEnd, Value: 0.5})
	tr.Emit(Event{Sec: 120, Type: EventStep, Phase: PhaseEnd, Value: math.NaN()})
	tr.Emit(Event{Sec: 180, Type: EventStep, Phase: PhaseEnd, Value: 0.5})
	if err := tr.Err(); err == nil || err.Error() != "obs: emit: json: unsupported value: NaN" {
		t.Fatalf("Err() = %v", err)
	}
	if tr.Count() != 1 {
		t.Fatalf("count = %d, want 1", tr.Count())
	}
	want := `{"v":"obs/v1","sec":60,"type":"step","phase":"end","value":0.5}` + "\n"
	if got := tr.core.bw.Buffered(); got != len(want) {
		t.Fatalf("%d bytes buffered, want the first event's %d", got, len(want))
	}
}

// TestTracerEmitAllocs: once its buffers have grown, an attached tracer
// encodes an event, decision included, without allocating.
func TestTracerEmitAllocs(t *testing.T) {
	tr := NewTracer(io.Discard)
	events := benchEvents()
	allocs := testing.AllocsPerRun(100, func() {
		for i := range events {
			tr.Emit(events[i])
		}
	})
	if allocs != 0 {
		t.Fatalf("Emit allocates %v objects per %d events, want 0", allocs, len(events))
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}

// benchEvents is one interval's worth of a traced run: a step span, two
// sweep-job spans, a control action and a scale-up decision with inputs and
// options.
func benchEvents() []Event {
	return []Event{
		{Sec: 3600, Type: EventStep, Phase: PhaseStart},
		{Sec: 3600, Type: EventSweepJob, Phase: PhaseStart, Detail: "flow"},
		{Sec: 3600, Type: EventSweepJob, Phase: PhaseEnd, Detail: "flow"},
		{Sec: 3600, Type: EventAssignCores, PE: 3, VM: 17, N: 1, Tenant: "sessions"},
		{Sec: 3600, Type: EventDecision, PE: 3, Decision: &Decision{
			Kind: "scale-up", PE: 3, Tenant: "sessions", Chosen: "assign-cores vm-17",
			Reason: "already-paid free core available",
			Inputs: map[string]float64{"demandEcu": 7.623366781083602, "effectiveEcu": 5.388012738815213,
				"meanOmega": 0.8465892252718202, "requiredEcu": 5.717525085812701, "spill": 0, "targetOmega": 0.75},
			Options: []DecisionOption{
				{Name: "free core on vm-17 (m1.medium)", Score: 1.9251976828262398},
				{Name: "free core on vm-19 (m1.medium)", Score: 1.1787363935967625, Rejected: "outscored"},
				{Name: "free core on vm-20 (m1.medium)", Score: 1.1282570569662007, Rejected: "outscored"},
			}}},
		{Sec: 3600, Type: EventSweepJob, Phase: PhaseStart, Detail: "check"},
		{Sec: 3600, Type: EventSweepJob, Phase: PhaseEnd, Detail: "check"},
		{Sec: 3600, Type: EventStep, Phase: PhaseEnd, N: 42, Value: 0.8465892252718202},
	}
}

// BenchmarkTracerEmit times one Emit (unit: event) over the events of
// benchEvents in turn: spans, a control action and a decision.
func BenchmarkTracerEmit(b *testing.B) {
	tr := NewTracer(io.Discard)
	events := benchEvents()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Emit(events[i%len(events)])
	}
	if err := tr.Err(); err != nil {
		b.Fatal(err)
	}
}
