package packetrelease_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/packetrelease"
)

// TestPacketRelease runs the analyzer over the ownership-pattern
// fixture: early-return leaks, double release, use-after-release,
// discards, loop rebinding, the transfer idioms, and the
// //smarth:owns-packet escape hatch.
func TestPacketRelease(t *testing.T) {
	analysistest.Run(t, packetrelease.Analyzer, "a")
}

// TestRPCFrameRelease covers the control plane's pooled frame: the
// *[]byte rpc's readFrame returns, held across the in-place parse and
// returned on every path including parse errors and unknown methods.
func TestRPCFrameRelease(t *testing.T) {
	analysistest.Run(t, packetrelease.Analyzer, "rpc")
}
