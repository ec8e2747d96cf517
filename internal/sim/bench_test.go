package sim

import "testing"

// BenchmarkScheduleAndFire measures raw event throughput: one schedule
// plus one dispatch per op. The free list should make this
// allocation-free at steady state.
func BenchmarkScheduleAndFire(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Microsecond, "bench", func() {})
		e.Step()
	}
}

// BenchmarkDeepQueue measures heap behaviour with many pending events.
func BenchmarkDeepQueue(b *testing.B) {
	e := NewEngine()
	const depth = 4096
	for i := 0; i < depth; i++ {
		e.After(Time(i)*Microsecond, "fill", func() {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(Time(depth)*Microsecond, "bench", func() {})
		e.Step()
	}
}

// BenchmarkCancel measures cancellation cost (lazy removal).
func BenchmarkCancel(b *testing.B) {
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		ev := e.After(Second, "bench", func() {})
		ev.Cancel()
		if e.Pending() > 10000 {
			e.RunUntil(e.Now()) // drop cancelled events via peek
			b.StopTimer()
			e = NewEngine()
			b.StartTimer()
		}
	}
}

// BenchmarkRNG measures the PRNG.
func BenchmarkRNG(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}
