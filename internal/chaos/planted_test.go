//go:build chaosbug

package chaos

import (
	"strings"
	"testing"
)

// TestPlantedBug proves the harness is not vacuous: under the planted
// protocol (read validation skipped on half the commits) the
// serializability checker must report a cycle, on every seed tried.
func TestPlantedBug(t *testing.T) {
	sc := Find("planted-bug")
	if sc == nil {
		t.Fatal("planted-bug scenario not registered under -tags chaosbug")
	}
	concurrentProcs(t, maxPlanWorkers)
	for seed := int64(1); seed <= 5; seed++ {
		r := sc.Run(seed)
		if r.Pass {
			t.Fatalf("seed %d: checker passed a protocol that skips read validation", seed)
		}
		found := false
		for _, v := range r.Violations {
			if strings.Contains(v, "serialization cycle") || strings.Contains(v, "both installed") {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("seed %d: failed, but not with a serializability violation: %v", seed, r.Violations)
		}
	}
}

// TestPlantedScenarioHidden asserts the planted scenario is only
// reachable under the chaosbug build tag (this test IS tagged, so it
// can only check registration consistency: the registry must expose it
// exactly once, at the end).
func TestPlantedScenarioHidden(t *testing.T) {
	all := Scenarios()
	n := 0
	for _, s := range all {
		if s.Name == "planted-bug" {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("planted-bug registered %d times", n)
	}
	if all[len(all)-1].Name != "planted-bug" {
		t.Fatal("planted-bug must sort last so untagged seed matrices are unaffected")
	}
}
