package telemetry

import (
	"fmt"
	"sync"
	"testing"
)

// TestCountersConcurrent drives report counters on one registry from many
// goroutines while it renders, as an experiment does when it fans loads out
// over workers; under -race (CI runs it) it proves the shared set is
// goroutine-safe. It also pins the report line: "name=value" pairs sorted
// by name, a counter resolved but never incremented reading "=0".
func TestCountersConcurrent(t *testing.T) {
	r := NewRegistry()
	r.Counter("touched")
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("shared").Inc()
				r.Counter(fmt.Sprintf("worker-%d", w)).Add(2)
				if i%100 == 0 {
					_ = r.Text(" ")
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*perWorker {
		t.Errorf("shared counter = %d, want %d", got, workers*perWorker)
	}
	want := fmt.Sprintf("shared=%d touched=0", workers*perWorker)
	for w := 0; w < workers; w++ {
		want += fmt.Sprintf(" worker-%d=%d", w, 2*perWorker)
	}
	if got := r.Text(" "); got != want {
		t.Errorf("Text = %q\nwant   %q", got, want)
	}
}
