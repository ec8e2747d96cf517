package artifact

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
)

// Encoder writes the JSON lines of every kernel artifact. A line is
// built field by field, in call order, into one reused buffer, so it
// costs no allocation once the buffer has grown; the buffer goes to w
// in chunks, and Flush writes the rest and reports the first write
// error. Numbers and strings come out exactly as encoding/json writes
// them, except that NaN and ±Inf become null. Keys are written as
// given and must need no escaping.
type Encoder struct {
	w     io.Writer
	b     []byte
	first bool // the innermost open object has no field yet
	err   error
}

// flushAt is the buffered size at which Begin hands the buffer to w.
const flushAt = 4 << 10

// NewEncoder returns an encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w, b: make([]byte, 0, 2*flushAt)}
}

// Begin starts a top-level object.
func (e *Encoder) Begin() *Encoder {
	if len(e.b) >= flushAt {
		e.Flush() // a write error stays in e.err for the last Flush to return
	}
	e.b = append(e.b, '{')
	e.first = true
	return e
}

// Object starts an object-valued field; Close ends it.
func (e *Encoder) Object(key string) *Encoder {
	e.key(key)
	e.b = append(e.b, '{')
	e.first = true
	return e
}

// Close ends the innermost object.
func (e *Encoder) Close() *Encoder {
	e.b = append(e.b, '}')
	e.first = false
	return e
}

// Line ends the top-level object and its line.
func (e *Encoder) Line() {
	e.b = append(e.b, '}', '\n')
}

// Raw appends s as it is: a document's opening or a separator.
func (e *Encoder) Raw(s string) *Encoder {
	e.b = append(e.b, s...)
	return e
}

// Str appends a string field.
func (e *Encoder) Str(key, v string) *Encoder {
	e.key(key)
	e.b = AppendString(e.b, v)
	return e
}

// Int appends an integer field.
func (e *Encoder) Int(key string, v int64) *Encoder {
	e.key(key)
	e.b = strconv.AppendInt(e.b, v, 10)
	return e
}

// Uint appends an unsigned integer field.
func (e *Encoder) Uint(key string, v uint64) *Encoder {
	e.key(key)
	e.b = strconv.AppendUint(e.b, v, 10)
	return e
}

// Float appends a float field (null for NaN and ±Inf).
func (e *Encoder) Float(key string, v float64) *Encoder {
	e.key(key)
	e.b = AppendFloat(e.b, v)
	return e
}

// Flush writes what the buffer holds and returns the first write error
// of the encoder's life. After an error nothing more is written.
func (e *Encoder) Flush() error {
	if e.err == nil && len(e.b) > 0 {
		_, e.err = e.w.Write(e.b)
	}
	e.b = e.b[:0]
	return e.err
}

func (e *Encoder) key(k string) {
	if e.first {
		e.first = false
	} else {
		e.b = append(e.b, ',')
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, k...)
	e.b = append(e.b, '"', ':')
}

// AppendFloat appends v formatted exactly as encoding/json formats a
// float64 — shortest round-trip digits, exponent form only below 1e-6 or
// from 1e21 up, a one-digit negative exponent without its leading zero —
// except that NaN and ±Inf become null: a gauge dividing by a zero
// denominator costs one null cell, not the artifact. An integral v
// below 2^53 in magnitude, other than −0, takes the integer formatter:
// its shortest round-trip digits are its exact digits, so the bytes are
// the same, and series sample times and counts are mostly such values.
func AppendFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, "null"...)
	}
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 && (v != 0 || !math.Signbit(v)) {
		return strconv.AppendInt(b, int64(v), 10)
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		// 1e-07 -> 1e-7, as encoding/json writes it.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// AppendString appends s as a JSON string literal, escaped exactly as
// encoding/json escapes it. A string of printable ASCII other than
// '"', '\\', '<', '>' and '&' needs no escape and is copied; any other
// goes through json.Marshal and so follows its rules: \u003c for '<',
// \b, \f, \u0000, \u2028, \ufffd for invalid UTF-8, and so on.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// plain marks the bytes AppendString copies without escaping.
var plain = func() (t [256]bool) {
	for c := ' '; c <= '~'; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()
