// Package maptier is a claimgraph fixture: a stand-in for the two-tier
// page table's cache lock, ranked between the cluster router and the
// bank claims in the canonical order. The package itself is clean;
// the rank violation appears only when another package acquires the
// tier lock under a lower-ranked lock.
package maptier

import "sync"

// Tier mirrors the real mapping tier: one mutex over the whole cache.
type Tier struct {
	mu sync.Mutex
}

// LockTier takes the tier lock and holds it for the caller.
func (t *Tier) LockTier() { t.mu.Lock() }

// UnlockTier gives the tier lock back.
func (t *Tier) UnlockTier() { t.mu.Unlock() }
