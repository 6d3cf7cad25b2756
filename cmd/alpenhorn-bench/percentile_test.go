package main

import (
	"testing"
	"time"
)

// TestPercentileNearestRank pins the one percentile rule churn and
// cdn-load report with: p99 of ten rounds is the slowest round, not the
// second-slowest that int(p·(n-1)) picks.
func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n, pct int
		want   time.Duration // samples are 1..n ms, so the answer is its rank
	}{
		{1, 50, 1}, {1, 99, 1},
		{2, 50, 1}, {2, 99, 2},
		{10, 50, 5}, {10, 99, 10},
		{100, 50, 50}, {100, 99, 99},
	} {
		sorted := make([]time.Duration, tc.n)
		for i := range sorted {
			sorted[i] = time.Duration(i+1) * time.Millisecond
		}
		if got := percentile(sorted, tc.pct); got != tc.want*time.Millisecond {
			t.Errorf("p%d of %d samples = %v, want %v", tc.pct, tc.n, got, tc.want*time.Millisecond)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("p99 of no samples = %v, want 0", got)
	}
}
