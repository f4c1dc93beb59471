package event

import (
	"testing"
	"time"
)

var start = time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)

func TestOrdering(t *testing.T) {
	eng := New(start)
	var got []int
	eng.ScheduleAfter(3*time.Second, "c", func() { got = append(got, 3) })
	eng.ScheduleAfter(1*time.Second, "a", func() { got = append(got, 1) })
	eng.ScheduleAfter(2*time.Second, "b", func() { got = append(got, 2) })
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order: %v", got)
	}
	if eng.Now() != start.Add(3*time.Second) {
		t.Fatalf("clock at %v", eng.Now())
	}
}

func TestFIFOAmongEqualDeadlines(t *testing.T) {
	eng := New(start)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		eng.ScheduleAfter(time.Second, "tie", func() { got = append(got, i) })
	}
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	eng := New(start)
	fired := false
	ev := eng.ScheduleAfter(time.Second, "x", func() { fired = true })
	eng.Cancel(ev)
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Cancelling again, or after the run, stays a no-op.
	eng.Cancel(ev)
	eng.Cancel(nil)
}

func TestNestedScheduling(t *testing.T) {
	eng := New(start)
	var at []time.Duration
	eng.ScheduleAfter(time.Second, "outer", func() {
		at = append(at, eng.Now().Sub(start))
		eng.ScheduleAfter(time.Second, "inner", func() {
			at = append(at, eng.Now().Sub(start))
		})
	})
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(at) != 2 || at[0] != time.Second || at[1] != 2*time.Second {
		t.Fatalf("times: %v", at)
	}
}

func TestSchedulePastClampsToNow(t *testing.T) {
	eng := New(start)
	eng.ScheduleAfter(time.Minute, "advance", func() {
		// Scheduling in the past must fire "now", not move time backward.
		eng.Schedule(start, "past", func() {
			if eng.Now().Before(start.Add(time.Minute)) {
				t.Error("clock moved backwards")
			}
		})
	})
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestRunLimit(t *testing.T) {
	eng := New(start)
	var tick func()
	tick = func() { eng.ScheduleAfter(time.Millisecond, "tick", tick) }
	tick()
	n, err := eng.Run(100)
	if err == nil {
		t.Fatal("runaway loop not detected")
	}
	if n != 100 {
		t.Fatalf("fired %d, want 100", n)
	}
}

func TestRunUntil(t *testing.T) {
	eng := New(start)
	fired := 0
	eng.ScheduleAfter(time.Second, "in", func() { fired++ })
	eng.ScheduleAfter(time.Hour, "out", func() { fired++ })
	eng.RunUntil(start.Add(time.Minute))
	if fired != 1 {
		t.Fatalf("fired %d, want 1", fired)
	}
	if eng.Now() != start.Add(time.Minute) {
		t.Fatalf("clock at %v", eng.Now())
	}
	// Running until an earlier time never moves the clock backwards.
	eng.RunUntil(start)
	if eng.Now() != start.Add(time.Minute) {
		t.Fatalf("clock moved back to %v", eng.Now())
	}
	if _, err := eng.Run(0); err != nil || fired != 2 {
		t.Fatalf("the later event did not stay pending: fired %d, err %v", fired, err)
	}
}
