package obs

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// eventEncoder appends obs/v1 events to a byte slice: for every Event, the
// exact bytes a json.Encoder (HTML escaping on, as NewEncoder leaves it)
// writes for it, newline included. Fields go in struct order under the
// omitempty rules of their tags, and Decision.Inputs keys sorted, as
// encoding/json orders map keys. It keeps its scratch between calls, so an
// event allocates nothing once the buffers have grown; it is not safe for
// concurrent use.
type eventEncoder struct {
	keys []string // Decision.Inputs keys, sorted for the event at hand
	err  error    // the first unsupported value of the event at hand
}

// appendEvent appends ev as one JSON line to b. A NaN or infinite float
// fails it with the error encoding/json returns for that value; the bytes
// appended so far are then meaningless.
func (e *eventEncoder) appendEvent(b []byte, ev *Event) ([]byte, error) {
	e.err = nil
	b = append(b, `{"v":`...)
	b = appendString(b, ev.V)
	b = append(b, `,"sec":`...)
	b = strconv.AppendInt(b, ev.Sec, 10)
	b = append(b, `,"type":`...)
	b = appendString(b, ev.Type)
	b = appendOptString(b, `,"phase":`, ev.Phase)
	b = appendOptInt(b, `,"pe":`, ev.PE)
	b = appendOptInt(b, `,"vm":`, ev.VM)
	b = appendOptInt(b, `,"n":`, ev.N)
	b = e.appendOptFloat(b, `,"lost":`, ev.Lost)
	b = e.appendOptFloat(b, `,"value":`, ev.Value)
	b = appendOptString(b, `,"detail":`, ev.Detail)
	b = appendOptString(b, `,"trace":`, ev.Trace)
	b = appendOptString(b, `,"span":`, ev.Span)
	b = appendOptString(b, `,"worker":`, ev.Worker)
	b = appendOptString(b, `,"tenant":`, ev.Tenant)
	if ev.Decision != nil {
		b = append(b, `,"decision":`...)
		b = e.appendDecision(b, ev.Decision)
	}
	b = append(b, "}\n"...)
	return b, e.err
}

func (e *eventEncoder) appendDecision(b []byte, d *Decision) []byte {
	b = append(b, `{"kind":`...)
	b = appendString(b, d.Kind)
	b = appendOptInt(b, `,"pe":`, d.PE)
	b = appendOptString(b, `,"tenant":`, d.Tenant)
	b = appendOptString(b, `,"chosen":`, d.Chosen)
	b = appendOptString(b, `,"reason":`, d.Reason)
	if len(d.Inputs) > 0 {
		for k := range d.Inputs {
			e.keys = append(e.keys, k)
		}
		slices.Sort(e.keys)
		b = append(b, `,"inputs":{`...)
		for i, k := range e.keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, k)
			b = append(b, ':')
			b = e.appendFloat(b, d.Inputs[k])
		}
		b = append(b, '}')
		clear(e.keys) // hold no key past the event
		e.keys = e.keys[:0]
	}
	if len(d.Options) > 0 {
		b = append(b, `,"options":[`...)
		for i := range d.Options {
			o := &d.Options[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"name":`...)
			b = appendString(b, o.Name)
			b = e.appendOptFloat(b, `,"score":`, o.Score)
			b = appendOptString(b, `,"rejected":`, o.Rejected)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if len(d.Notes) > 0 {
		b = append(b, `,"notes":[`...)
		for i, s := range d.Notes {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, s)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendOptString appends key and s unless s is empty (omitempty).
func appendOptString(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(append(b, key...), s)
}

// appendOptInt appends key and n unless n is 0 (omitempty).
func appendOptInt(b []byte, key string, n int) []byte {
	if n == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), int64(n), 10)
}

// appendOptFloat appends key and f unless f is 0 or -0 (omitempty).
func (e *eventEncoder) appendOptFloat(b []byte, key string, f float64) []byte {
	if f == 0 {
		return b
	}
	return e.appendFloat(append(b, key...), f)
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// 'f' form, or the 'e' form below 1e-6 and from 1e21 up with a one-digit
// negative exponent unpadded (1e-07 becomes 1e-7). NaN and ±Inf are not
// JSON: the first one latches the error encoding/json gives for it.
func (e *eventEncoder) appendFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			_, e.err = json.Marshal(f)
		}
		return b
	}
	// A whole number below 2^53 in magnitude has its integer's digits as
	// its shortest 'f' form, which AppendInt writes several times faster.
	// -0 is left to AppendFloat, which keeps its sign.
	if i := int64(f); float64(i) == f && i > -1<<53 && i < 1<<53 && (i != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(b, i, 10)
	}
	format := byte('f')
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// plainByte marks the bytes a JSON string carries as they are: printable
// ASCII other than ", \, <, > and &.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendString appends s as a JSON string. Plain bytes are written as they
// are, and " and \ escaped. A string holding any other byte goes through
// encoding/json whole, so its rules for control bytes, HTML characters,
// invalid UTF-8 and U+2028/U+2029 stay the only ones.
func appendString(b []byte, s string) []byte {
	mark := len(b)
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if plainByte[c] {
			continue
		}
		if c != '"' && c != '\\' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b[:mark], q...)
		}
		b = append(b, s[start:i]...)
		b = append(b, '\\', c)
		start = i + 1
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
