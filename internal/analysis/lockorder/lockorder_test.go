package lockorder_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/lockorder"
)

// TestLockOrder runs the analyzer over the ranked-mutex fixture:
// inversions, a second acquire of a held lock, and the TryLock branch,
// each with a reporting and a clean case.
func TestLockOrder(t *testing.T) {
	analysistest.Run(t, lockorder.Analyzer, "a")
}
