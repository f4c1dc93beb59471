//go:build fullgolden

package experiments

import (
	"runtime"
	"testing"
)

// TestAllFiguresRunFull pins every figure at the paper's scale
// (DefaultOptions, seed 2017) against testdata/full.golden, as
// TestAllFiguresRunQuick does at quick scale. It takes minutes, so it is
// built only with the fullgolden tag:
//
//	go test -tags fullgolden -count=1 -timeout 30m -run TestAllFiguresRunFull ./internal/experiments
func TestAllFiguresRunFull(t *testing.T) {
	o := DefaultOptions()
	o.Workers = runtime.GOMAXPROCS(0)
	if ran, requested := checkGolden(t, o, "testdata/full.golden"); ran != 16200 || requested != 26709 {
		t.Errorf("loads: %d run of %d requested, want 16200 run of 26709", ran, requested)
	}
}
