package conformance

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestConformance is the differential harness: each scenario runs once
// through the DES substrate and once through a real in-process cluster,
// and the writesched engine's ordered decision logs must be
// byte-for-byte identical.
func TestConformance(t *testing.T) {
	for _, s := range Scenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			simLog, err := RunSim(s)
			if err != nil {
				t.Fatalf("sim run: %v", err)
			}
			again, err := RunSim(s)
			if err != nil {
				t.Fatalf("sim rerun: %v", err)
			}
			if again != simLog {
				t.Fatalf("sim substrate is not deterministic:\n--- first ---\n%s\n--- second ---\n%s", simLog, again)
			}

			var from, to string
			if s.Fault != nil {
				from, to = faultLink(t, simLog, s)
			}
			liveLog, err := RunLive(s, from, to)
			if err != nil {
				t.Fatalf("live run: %v", err)
			}
			if liveLog != simLog {
				t.Fatalf("decision logs diverge:%s", diff(simLog, liveLog))
			}
		})
	}
}

// faultLink reads the failing block's initial pipeline out of the sim
// log, returns the link into the hop its fault blames, and checks the
// seed keeps that link out of every other pipeline: the live blackhole
// lasts the whole write, so a link that carried any other pipeline
// would fail blocks the sim does not (fix by picking a different
// Scenario.Seed).
func faultLink(t *testing.T, simLog string, s Scenario) (from, to string) {
	t.Helper()
	var failing []string
	pipes := pipelines(simLog)
	for _, p := range pipes {
		if p.Idx == s.Fault.Block && !p.Restream {
			failing = p.Targets
			break
		}
	}
	from, to, ok := s.link(failing)
	if !ok {
		t.Fatalf("block %d's launch in the sim log has no hop %d:\n%s", s.Fault.Block, s.Fault.BadIndex, simLog)
	}
	for _, p := range pipes {
		if p.Idx == s.Fault.Block && !p.Restream {
			continue
		}
		hops := append([]string{sim.ClientName}, p.Targets...)
		for i := 1; i < len(hops); i++ {
			if hops[i-1] == from && hops[i] == to {
				t.Fatalf("link %s→%s also carries pipeline idx=%d (restream=%v); pick a different seed.\n%s",
					from, to, p.Idx, p.Restream, simLog)
			}
		}
	}
	return from, to
}

// diff renders the first diverging line with context.
func diff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	n := len(w)
	if len(g) < n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		if w[i] != g[i] {
			return strings.Join([]string{
				"", "line " + strconv.Itoa(i+1) + ":",
				"  sim:  " + w[i],
				"  live: " + g[i],
				"--- full sim log ---", want,
				"--- full live log ---", got,
			}, "\n")
		}
	}
	return "\nlogs differ in length (sim " + strconv.Itoa(len(w)) + " lines, live " + strconv.Itoa(len(g)) +
		" lines)\n--- full sim log ---\n" + want + "\n--- full live log ---\n" + got
}

// TestScenarioLogsExerciseTheProtocol pins the structural markers each
// scenario exists to cover, so a regression that silently empties a log
// (both substrates agreeing on nothing) cannot pass as conformance.
func TestScenarioLogsExerciseTheProtocol(t *testing.T) {
	want := map[string][]string{
		"hdfs-single-rack":  {"create path=" + Path + " mode=HDFS repl=3 cap=1", "retire idx=0", "complete path="},
		"smarth-two-rack":   {"mode=SMARTH repl=3 cap=3", "localopt idx=", "fnfa idx=", "retire idx=", "complete path="},
		"smarth-throttled":  {"mode=SMARTH repl=3 cap=3", "fnfa idx=", "complete path="},
		"smarth-failure":    {"fail idx=2 bad=", "recover idx=2 attempt=1", "restream idx=2", "recovered idx=2", "complete path="},
		"hdfs-failure-hop1": {"mode=HDFS repl=3 cap=1", "launch idx=2 targets=[dn9,dn3,dn5]", "fail idx=2 bad=dn3", "recover idx=2 attempt=1 alive=[dn9,dn5]", "restream idx=2", "recovered idx=2", "complete path="},
	}
	for _, s := range Scenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			markers, ok := want[s.Name]
			if !ok {
				t.Fatalf("scenario %s has no marker list; add one so an empty log cannot pass", s.Name)
			}
			log, err := RunSim(s)
			if err != nil {
				t.Fatalf("sim run: %v", err)
			}
			for _, marker := range markers {
				if !strings.Contains(log, marker) {
					t.Fatalf("log missing %q:\n%s", marker, log)
				}
			}
		})
	}
}
