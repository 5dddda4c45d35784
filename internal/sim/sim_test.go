package sim

import (
	"testing"
	"time"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.After(3*time.Millisecond, func() { order = append(order, 3) })
	s.After(1*time.Millisecond, func() { order = append(order, 1) })
	s.After(2*time.Millisecond, func() { order = append(order, 2) })
	if n := s.Run(); n != 3 {
		t.Fatalf("Run fired %d events, want 3", n)
	}
	if order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 3*time.Millisecond {
		t.Errorf("Now = %v, want 3ms", s.Now())
	}
}

func TestTiesFireInSchedulingOrder(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestEventsScheduleEvents(t *testing.T) {
	s := New()
	var fired []time.Duration
	s.After(time.Millisecond, func() {
		fired = append(fired, s.Now())
		s.After(time.Millisecond, func() {
			fired = append(fired, s.Now())
		})
	})
	s.Run()
	if len(fired) != 2 || fired[0] != time.Millisecond || fired[1] != 2*time.Millisecond {
		t.Errorf("fired = %v", fired)
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	s := New()
	var count int
	s.After(1*time.Millisecond, func() { count++ })
	s.After(5*time.Millisecond, func() { count++ })
	if n := s.RunUntil(2 * time.Millisecond); n != 1 {
		t.Fatalf("RunUntil fired %d, want 1", n)
	}
	if s.Now() != 2*time.Millisecond {
		t.Errorf("Now = %v, want 2ms", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
	s.Run()
	if count != 2 {
		t.Errorf("count = %d, want 2", count)
	}
}

func TestNegativeAndPastTimesClamp(t *testing.T) {
	s := New()
	s.After(time.Millisecond, func() {
		s.At(0, func() {}) // in the past: clamps to now
		s.After(-time.Second, func() {})
	})
	s.Run()
	if s.Now() != time.Millisecond {
		t.Errorf("Now = %v", s.Now())
	}
}
