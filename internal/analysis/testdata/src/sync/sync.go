// Package sync is a minimal stub of the standard library's sync
// package for analyzer fixtures: just the mutex types whose Lock
// methods the claimgraph analyzer recognizes.
package sync

// Mutex is a stub of sync.Mutex.
type Mutex struct{}

// Lock locks m.
func (m *Mutex) Lock() {}

// Unlock unlocks m.
func (m *Mutex) Unlock() {}

// RWMutex is a stub of sync.RWMutex.
type RWMutex struct{}

// Lock write-locks m.
func (m *RWMutex) Lock() {}

// Unlock write-unlocks m.
func (m *RWMutex) Unlock() {}

// RLock read-locks m.
func (m *RWMutex) RLock() {}

// RUnlock read-unlocks m.
func (m *RWMutex) RUnlock() {}
