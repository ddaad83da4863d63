package jobs

import (
	"fmt"
	"testing"
)

// BenchmarkJobThroughput measures sustained items/sec through the full
// subsystem — scheduler, worker pool, per-item ledger appends — on the
// model-free urlmatch suite, at worker-pool widths 1 and 8. CI runs one
// iteration of each arm as a smoke test.
func BenchmarkJobThroughput(b *testing.B) {
	env := testEnv(b)
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			// MaxWorkers is pinned so the workers8 arm really runs 8 even on
			// small CI hosts — otherwise the uploaded numbers are mislabeled.
			m, err := NewManager(Config{Dir: b.TempDir(), Env: env, MaxActive: 1, MaxQueued: b.N + 1, MaxWorkers: 8})
			if err != nil {
				b.Fatal(err)
			}
			m.RegisterModel("large", env.Large)
			items := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j, err := m.Submit(Spec{Suite: "urlmatch", ShardSize: 8, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				j.Wait()
				if j.Status() != StatusCompleted {
					b.Fatalf("job %s: %s", j.ID, j.Status())
				}
				items += len(j.Results())
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(items)/secs, "items/sec")
			}
		})
	}
}
