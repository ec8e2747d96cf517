// Package snap provides deterministic, human-diffable state snapshots
// for the checkpoint/replay machinery. A snapshot is a flat text
// document of "key=value" lines grouped into "[section]" headers; two
// runs of the simulator are in the same state exactly when their
// snapshots are byte-identical. The text form is deliberate: when a
// replay diverges, diffing two snapshots localizes the first divergent
// subsystem and field, which a hash or opaque gob never could.
//
// The encoder depends on nothing above the standard library so every
// layer of the simulator (sim, sched, mem, disk, fault, kernel) can
// write its own Snapshot(enc) method without import cycles; times are
// passed as int64 nanoseconds for the same reason. Implementations must
// be read-only and deterministic: iterate maps in sorted key order,
// format floats with Encoder.Float, and never consult wall-clock time
// or unforked randomness.
package snap

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// Encoder accumulates one snapshot document.
type Encoder struct {
	b bytes.Buffer
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Section starts a named section. Sections exist for the human reading
// a divergence diff; the byte-identity contract does not care.
func (e *Encoder) Section(name string) {
	fmt.Fprintf(&e.b, "[%s]\n", name)
}

// Str records a string value. Values must not contain newlines.
func (e *Encoder) Str(key, v string) {
	fmt.Fprintf(&e.b, "%s=%s\n", key, v)
}

// Int records a signed integer (including sim.Time nanoseconds).
func (e *Encoder) Int(key string, v int64) {
	fmt.Fprintf(&e.b, "%s=%d\n", key, v)
}

// Uint records an unsigned integer.
func (e *Encoder) Uint(key string, v uint64) {
	fmt.Fprintf(&e.b, "%s=%d\n", key, v)
}

// Bool records a boolean.
func (e *Encoder) Bool(key string, v bool) {
	fmt.Fprintf(&e.b, "%s=%t\n", key, v)
}

// Float records a float with the shortest round-trippable formatting,
// so equal values always render to equal bytes.
func (e *Encoder) Float(key string, v float64) {
	fmt.Fprintf(&e.b, "%s=%s\n", key, strconv.FormatFloat(v, 'g', -1, 64))
}

// SortedInts records an int64-valued map in sorted key order. Map
// iteration order is the classic source of nondeterministic snapshots;
// funnel every map through this (or sort keys by hand).
func (e *Encoder) SortedInts(prefix string, m map[int]int64) {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		e.Int(fmt.Sprintf("%s%d", prefix, k), m[k])
	}
}

// Bytes returns the snapshot document accumulated so far.
func (e *Encoder) Bytes() []byte { return e.b.Bytes() }

// Sum returns a short hex digest of the document — a compact identity
// for log lines and repro commands ("state abc123 at t=1.5s").
func (e *Encoder) Sum() string {
	h := fnv.New64a()
	h.Write(e.b.Bytes())
	return fmt.Sprintf("%016x", h.Sum64())
}
