package lockorder_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/lockorder"
)

// TestLockOrder runs the analyzer over the one-lock fixture: a second
// acquire of the held lock and a call into a locking method while the
// lock is held, each with a reporting and a clean case, and a branch
// that unlocks and returns, which leaves the lock held below it.
func TestLockOrder(t *testing.T) {
	analysistest.Run(t, lockorder.Analyzer, "a")
}
