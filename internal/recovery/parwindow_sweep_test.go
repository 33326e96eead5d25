package recovery_test

import (
	"testing"

	"envy/internal/cleaner"
	"envy/internal/core"
	"envy/internal/fault"
	"envy/internal/flash"
	"envy/internal/invariant"
	"envy/internal/recovery"
)

// Crash-point sweeps through multi-lane background windows: with
// ParallelFlush at the bank count several background operations
// retire at the same simulated instant, their
// SRAM/flash effects only partially merged when the k-th merge
// boundary (the gap between two same-instant completion callbacks)
// fires. Recovery must repair the partial merge at every k: no
// acknowledged write lost, the invariant suite green.

// parwindowConfig widens the torture geometry to four banks with one
// flush lane each, so multi-lane windows actually form. Greedy cleaning
// keeps the flush targets striping across banks without the hybrid
// policy's bank stagger.
func parwindowConfig() core.Config {
	return core.Config{
		Geometry: flash.Geometry{PageSize: 64, PagesPerSegment: 16, Segments: 16, Banks: 4},
		Cleaning: cleaner.Config{
			Kind:              cleaner.Greedy,
			PartitionSegments: 2,
			WearThreshold:     4,
		},
		BufferPages:   32,
		ParallelFlush: 4,
	}
}

// sweepParWindow replays the workload once per plan on a wide-bank
// device, recovering and verifying after each planned crash.
func sweepParWindow(t *testing.T, maxK int, mkPlan func(k int64) fault.Plan) []recovery.Report {
	t.Helper()
	var reports []recovery.Report
	for k := int64(1); k <= int64(maxK); k++ {
		d, err := core.New(parwindowConfig())
		if err != nil {
			t.Fatal(err)
		}
		d.ArmFault(mkPlan(k))
		model := make(map[uint64]uint32)
		crashed := driveFixed(t, d, model, 0x9a4a11e1, 3000)
		if !crashed {
			break
		}
		rep, err := recovery.Recover(d)
		if err != nil {
			t.Fatalf("k=%d: recovery failed: %v (report: %v)", k, err, rep)
		}
		reports = append(reports, rep)
		verifyModel(t, d, model)
		if err := invariant.CheckDevice(d); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
	return reports
}

// TestParWindowMergeCrashes walks the crash point through every merge
// boundary the workload produces: the fault fires between the
// completion callbacks of two operations retiring at one instant, so
// one lane's effects are merged and the other's are not.
func TestParWindowMergeCrashes(t *testing.T) {
	maxK := 200
	if testing.Short() {
		maxK = 30
	}
	reports := sweepParWindow(t, maxK, func(k int64) fault.Plan {
		return fault.Plan{Merge: k}
	})
	if len(reports) < 10 {
		t.Fatalf("only %d merge crash points reached; multi-lane windows are not forming", len(reports))
	}
	t.Logf("merge sweep: %d crash points recovered", len(reports))
}

// TestParWindowProgramCrashes re-runs the program-count sweep with
// four lanes live: a program torn while other banks' operations are in
// flight must recover like any other.
func TestParWindowProgramCrashes(t *testing.T) {
	maxK := 300
	if testing.Short() {
		maxK = 50
	}
	reports := sweepParWindow(t, maxK, func(k int64) fault.Plan {
		return fault.Plan{Program: k}
	})
	if len(reports) < 30 {
		t.Fatalf("only %d program crash points reached", len(reports))
	}
}
