// Package lockuser is a claimgraph fixture: it acquires locks owned by
// the claims, cluster and maptier fixtures through their helpers, so
// every edge here depends on imported function facts, and the deadlock
// cycle closes only through the acquisition edge the claims package
// exports.
package lockuser

import (
	"envy/internal/claims"
	"envy/internal/cluster"
	"envy/internal/maptier"
)

// pairedUse takes both claims locks in that package's canonical A→B
// order. Clean.
func pairedUse(a *claims.A, b *claims.B) {
	claims.LockBoth(a, b)
	claims.UnlockBoth(a, b)
}

// badCycle grabs B first and then A, closing a cycle against the A→B
// edge that claims.LockBoth exports.
func badCycle(a *claims.A, b *claims.B) {
	b.Grab()
	claims.LockA(a) // want `claimgraph: lock-order cycle envy/internal/claims\.B\.mu → envy/internal/claims\.A\.mu → envy/internal/claims\.B\.mu`
	claims.UnlockA(a)
	b.Drop()
}

// goodRouterOrder takes the router lock before the mapping tier —
// descending the canonical ranks, the way the real service tier nests
// under its members' machinery. Clean.
func goodRouterOrder(c *cluster.Cluster, mt *maptier.Tier) {
	c.LockRouter()
	mt.LockTier()
	mt.UnlockTier()
	c.UnlockRouter()
}

// badRouterOrder acquires the router lock while the mapping-tier lock
// is held: the router ranks directly under the device lock, above the
// tier, so this inverts the order.
func badRouterOrder(c *cluster.Cluster, mt *maptier.Tier) {
	mt.LockTier()
	c.LockRouter() // want `claimgraph: envy/internal/cluster\.Cluster\.mu at cluster\.go:\d+ via envy/internal/cluster\.Cluster\.LockRouter acquired while envy/internal/maptier\.Tier\.mu is held`
	c.UnlockRouter()
	mt.UnlockTier()
}
