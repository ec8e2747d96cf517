package sim

import "testing"

func TestNilCallbackPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.At(0, "nil", nil)
}

func TestEveryRejectsNonPositivePeriod(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Every(0, "bad", func() {})
}
