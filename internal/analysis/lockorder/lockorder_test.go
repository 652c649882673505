package lockorder_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/lockorder"
)

// TestLockOrder runs the analyzer over the one-lock fixture: a second
// acquire of the held lock, the TryLock branch, and a call into a
// locking method while the lock is held, each with a reporting and a
// clean case.
func TestLockOrder(t *testing.T) {
	analysistest.Run(t, lockorder.Analyzer, "a")
}
