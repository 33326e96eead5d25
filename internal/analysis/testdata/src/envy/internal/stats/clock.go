// Simtime fixture: stats was outside the hand-kept package list the
// prefix rule replaced. Every package under envy/internal/ is
// deterministic territory now, so the nondeterminism is flagged here,
// at its source, instead of at a simulation package's call to it.
package stats

import (
	"math/rand" // want `simtime: import of math/rand`
	"time"
)

// stamp reads the host clock.
func stamp() time.Time {
	return time.Now() // want `simtime: time\.Now reads the wall clock`
}

// jitter draws from the process-global source; the import is the finding.
func jitter() int { return rand.Intn(8) }
