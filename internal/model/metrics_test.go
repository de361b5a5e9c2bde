package model

import (
	"strings"
	"testing"
)

func TestRunMetricsRates(t *testing.T) {
	var zero RunMetrics
	if zero.CacheHitRate() != 0 || zero.ReplayRate() != 0 {
		t.Errorf("zero metrics should report zero rates, got %v / %v",
			zero.CacheHitRate(), zero.ReplayRate())
	}
	m := RunMetrics{CacheHits: 30, CacheMisses: 10, ReplayedTasks: 6, RollbackDepth: 2}
	if got := m.CacheHitRate(); got != 0.75 {
		t.Errorf("CacheHitRate = %v, want 0.75", got)
	}
	if got := m.ReplayRate(); got != 0.75 {
		t.Errorf("ReplayRate = %v, want 0.75", got)
	}
}

func TestRunMetricsAdd(t *testing.T) {
	a := RunMetrics{OuterIterations: 1, LookAheadSteps: 2, LoCBSRuns: 3, Commits: 4, Marks: 5,
		CacheHits: 6, CacheMisses: 7, ReplayedTasks: 8, ResumedRuns: 9, RollbackDepth: 10}
	var sum RunMetrics
	sum.Add(a)
	sum.Add(a)
	want := RunMetrics{OuterIterations: 2, LookAheadSteps: 4, LoCBSRuns: 6, Commits: 8, Marks: 10,
		CacheHits: 12, CacheMisses: 14, ReplayedTasks: 16, ResumedRuns: 18, RollbackDepth: 20}
	if sum != want {
		t.Errorf("Add twice = %+v, want %+v", sum, want)
	}
}

func TestRunMetricsString(t *testing.T) {
	m := RunMetrics{OuterIterations: 3, LookAheadSteps: 40, LoCBSRuns: 25,
		Commits: 2, Marks: 1, CacheHits: 15, CacheMisses: 25}
	s := m.String()
	for _, want := range []string{"outer=3", "locbs=25", "cache=15/40", "37.5% hit"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	if strings.Contains(s, "resume=") {
		t.Errorf("String() = %q reports resume with none recorded", s)
	}
	m.ResumedRuns, m.ReplayedTasks, m.RollbackDepth = 4, 3, 1
	if s := m.String(); !strings.Contains(s, "resume=4 replayed=3 rollback=1 (75.0% replay)") {
		t.Errorf("String() = %q, missing resume report", s)
	}
}
