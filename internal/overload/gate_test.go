package overload

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilGateAdmitsEverything(t *testing.T) {
	var g *Gate
	if err := g.Acquire(time.Time{}); err != nil {
		t.Fatalf("nil gate refused admission: %v", err)
	}
	g.Release()
	if l := g.Level(); l != LevelNormal {
		t.Fatalf("nil gate level = %v", l)
	}
	if g.Saturated() {
		t.Fatal("nil gate reports saturated")
	}
}

func TestGateAdmitsUpToLimit(t *testing.T) {
	g := NewGate(Config{MaxConcurrent: 3, MaxQueue: 2, MaxWait: 10 * time.Millisecond})
	for i := 0; i < 3; i++ {
		if err := g.Acquire(time.Time{}); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	if l := g.Level(); l != LevelShedPush {
		t.Fatalf("full gate level = %v, want shed-push", l)
	}
	// A fourth acquire must wait and then time out.
	start := time.Now()
	err := g.Acquire(time.Time{})
	if !errors.Is(err, ErrShed) {
		t.Fatalf("over-limit acquire: err = %v, want ErrShed", err)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("over-limit acquire returned without waiting")
	}
	for i := 0; i < 3; i++ {
		g.Release()
	}
	st := g.Stats()
	if st.Inflight != 0 || st.Queued != 0 {
		t.Fatalf("after release: %+v", st)
	}
	if st.Shed != 1 {
		t.Fatalf("shed = %d, want 1", st.Shed)
	}
}

func TestGateHandsSlotToNewestWaiter(t *testing.T) {
	g := NewGate(Config{MaxConcurrent: 1, MaxQueue: 4, MaxWait: time.Second})
	if err := g.Acquire(time.Time{}); err != nil {
		t.Fatal(err)
	}
	type res struct {
		id  int
		err error
	}
	results := make(chan res, 2)
	admitted := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		id := i
		go func() {
			defer wg.Done()
			err := g.Acquire(time.Time{})
			if err == nil {
				admitted <- id
			}
			results <- res{id, err}
		}()
		time.Sleep(20 * time.Millisecond) // order the waiters: 0 queues first
	}
	g.Release() // should admit waiter 1 (newest), not waiter 0
	first := <-admitted
	if first != 1 {
		t.Errorf("LIFO violated: waiter %d admitted first", first)
	}
	g.Release() // admits waiter 0
	g.Release()
	wg.Wait()
	close(results)
	for r := range results {
		if r.err != nil {
			t.Errorf("waiter %d: %v", r.id, r.err)
		}
	}
}

func TestGateOverflowShedsOldestWaiter(t *testing.T) {
	g := NewGate(Config{MaxConcurrent: 1, MaxQueue: 1, MaxWait: time.Second})
	if err := g.Acquire(time.Time{}); err != nil {
		t.Fatal(err)
	}
	oldest := make(chan error, 1)
	go func() { oldest <- g.Acquire(time.Time{}) }()
	for {
		if g.Stats().Queued == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Queue is full: the next arrival sheds the oldest waiter and takes its
	// place.
	newest := make(chan error, 1)
	go func() { newest <- g.Acquire(time.Time{}) }()
	if err := <-oldest; !errors.Is(err, ErrShed) {
		t.Fatalf("oldest waiter: err = %v, want ErrShed", err)
	}
	if !g.Saturated() {
		t.Error("full queue not reported saturated")
	}
	g.Release()
	if err := <-newest; err != nil {
		t.Fatalf("newest waiter: %v", err)
	}
	g.Release()
}

func TestGateHonorsDeadline(t *testing.T) {
	g := NewGate(Config{MaxConcurrent: 1, MaxQueue: 2, MaxWait: time.Minute})
	if err := g.Acquire(time.Time{}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := g.Acquire(time.Now().Add(15 * time.Millisecond))
	if !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("deadline wait took %v", el)
	}
	// An already-expired deadline sheds immediately.
	if err := g.Acquire(time.Now().Add(-time.Second)); !errors.Is(err, ErrShed) {
		t.Fatalf("expired deadline: err = %v, want ErrShed", err)
	}
	g.Release()
}

func TestGateDrainShedsQueueAndRefuses(t *testing.T) {
	g := NewGate(Config{MaxConcurrent: 1, MaxQueue: 4, MaxWait: time.Minute})
	if err := g.Acquire(time.Time{}); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() { queued <- g.Acquire(time.Time{}) }()
	for g.Stats().Queued == 0 {
		time.Sleep(time.Millisecond)
	}
	g.Drain()
	if err := <-queued; !errors.Is(err, ErrShed) {
		t.Fatalf("queued waiter after drain: %v, want ErrShed", err)
	}
	if err := g.Acquire(time.Time{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("acquire after drain: %v, want ErrDraining", err)
	}
	g.Release() // the in-flight request still releases cleanly
	st := g.Stats()
	if st.Inflight != 0 {
		t.Fatalf("inflight after release = %d", st.Inflight)
	}
	if st.Shed != 1 {
		t.Fatalf("shed = %d, want 1: each drained waiter counts once", st.Shed)
	}
}

// TestGateHammer drives the gate from many goroutines under the race
// detector: the concurrency bound must hold at every instant and every
// admitted request must release.
func TestGateHammer(t *testing.T) {
	const workers = 64
	const limit = 8
	g := NewGate(Config{MaxConcurrent: limit, MaxQueue: 16, MaxWait: 50 * time.Millisecond})
	var inside atomic.Int64
	var admitted, shed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if err := g.Acquire(time.Time{}); err != nil {
					shed.Add(1)
					continue
				}
				if n := inside.Add(1); n > limit {
					t.Errorf("concurrency bound violated: %d inside", n)
				}
				admitted.Add(1)
				time.Sleep(time.Microsecond)
				inside.Add(-1)
				g.Release()
			}
		}()
	}
	wg.Wait()
	st := g.Stats()
	if st.Inflight != 0 || st.Queued != 0 {
		t.Fatalf("gate not empty after hammer: %+v", st)
	}
	if admitted.Load() == 0 {
		t.Fatal("nothing admitted")
	}
	t.Logf("admitted=%d shed=%d peak-queue=%d", admitted.Load(), shed.Load(), st.PeakQueue)
}
