package bufpool

import "testing"

// Get(n) must hand out len n with capacity for it at every class edge,
// and a buffer must come back from the class its capacity fills —
// otherwise a later Get from that class could receive one too small.
func TestGetPutAcrossClasses(t *testing.T) {
	sizes := []int{0, 1, 11, 1 << minShift, 1<<minShift + 1, 68 << 10, 256 << 10, 1 << 20, 1<<20 + 1, 3 << 20}
	for _, n := range sizes {
		bp := Get(n)
		if len(*bp) != n || cap(*bp) < n {
			t.Fatalf("Get(%d): len %d cap %d", n, len(*bp), cap(*bp))
		}
		Put(bp)
	}
	for round := 0; round < 3; round++ {
		for _, n := range sizes {
			bp := GetCap(n)
			if len(*bp) != 0 || cap(*bp) < n {
				t.Fatalf("GetCap(%d) after Puts of other sizes: len %d cap %d", n, len(*bp), cap(*bp))
			}
			// Appends may move the slice to a bigger array; Put pools
			// whatever the header points at now.
			*bp = append(*bp, make([]byte, n+round*700)...)
			Put(bp)
		}
	}
}

func TestOversizeIsNotPooled(t *testing.T) {
	small := make([]byte, 8) // never came from Get; below the smallest class
	Put(&small)
	Put(nil)
	if bp := Get(16); cap(*bp) < 1<<minShift {
		t.Fatalf("Get(16) returned a %d-byte array: an undersized buffer was pooled", cap(*bp))
	}
}
